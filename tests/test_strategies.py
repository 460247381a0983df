"""Strategy decision tables, exercised on hand-built observations."""

from graftsim.onchain import FAILSAFE, RUNNING, STIPULATING
from graftsim.strategies import (
    AGREE,
    APPEND,
    IDLE,
    PROPOSE,
    REFUSE,
    SEND,
    STRATEGIES,
    TARGET_ANCHOR,
    TARGET_CONTINUE,
    TARGET_FAILSAFE,
    TARGET_GRAFT,
    TARGET_INIT,
    WITHHOLD,
    Observation,
    honest,
    premature_init,
    register,
    rollback_attacker,
    silent_aborter,
    staller,
)


def obs(**overrides):
    base = dict(actor="A", height=0, mode="offchain", phase=RUNNING,
                owes_message=False, others_owe_me=False, waiting_rounds=0)
    base.update(overrides)
    return Observation(**base)


def test_registry_contains_all_bundled_strategies():
    assert set(STRATEGIES) >= {"honest", "staller", "premature_init",
                               "rollback_attacker", "silent_aborter"}
    assert STRATEGIES["honest"] is honest


def test_register_adds_new_strategy():
    @register("always_idle")
    def always_idle(o, params):
        return honest(o, params)
    try:
        assert STRATEGIES["always_idle"] is always_idle
    finally:
        del STRATEGIES["always_idle"]


class TestHonestStipulation:
    def test_sends_when_owed(self):
        action = honest(obs(phase=STIPULATING, owes_message=True), {})
        assert action.kind == SEND

    def test_appends_head_when_exchange_done(self):
        action = honest(obs(phase=STIPULATING, anchor_appendable=True), {})
        assert (action.kind, action.target) == (APPEND, TARGET_ANCHOR)

    def test_idles_while_gated(self):
        assert honest(obs(phase=STIPULATING, others_owe_me=True), {}).kind == IDLE


class TestHonestRunning:
    def test_sends_owed_graft_signatures(self):
        assert honest(obs(owes_message=True), {}).kind == SEND

    def test_agrees_with_on_branch_proposal(self):
        action = honest(obs(proposal=("B", 6), i_agreed=False, next_child=6), {})
        assert action.kind == AGREE

    def test_refuses_off_branch_proposal(self):
        action = honest(obs(proposal=("B", 2), i_agreed=False, next_child=6), {})
        assert action.kind == REFUSE

    def test_proposes_next_branch_child(self):
        action = honest(obs(next_child=6, next_child_proposable=True), {})
        assert (action.kind, action.child) == (PROPOSE, 6)

    def test_does_not_propose_over_pending_work(self):
        assert honest(obs(next_child=6, next_child_proposable=True,
                          pending_graft=True), {}).kind == IDLE
        assert honest(obs(next_child=6, next_child_proposable=True,
                          proposal=("A", 6)), {}).kind == IDLE

    def test_settles_voluntarily_at_leaf(self):
        action = honest(obs(at_leaf=True), {})
        assert (action.kind, action.target) == (APPEND, TARGET_INIT)


class TestHonestFailsafeTriggers:
    def test_refused_step_forces_the_move(self):
        action = honest(obs(step_refused=True, owes_message=True), {})
        assert (action.kind, action.target) == (APPEND, TARGET_FAILSAFE)

    def test_patience_exhausted_forces_the_move(self):
        waiting = obs(others_owe_me=True, waiting_rounds=3)
        assert honest(waiting, {"patience": 2}).target == TARGET_FAILSAFE
        borderline = obs(others_owe_me=True, waiting_rounds=2)
        assert honest(borderline, {"patience": 2}).kind == IDLE

    def test_deliberate_departure_beats_cooperation(self):
        action = honest(obs(steps_sealed=2, owes_message=True),
                        {"failsafe_after_steps": 2})
        assert (action.kind, action.target) == (APPEND, TARGET_FAILSAFE)
        early = honest(obs(steps_sealed=1, owes_message=True),
                       {"failsafe_after_steps": 2})
        assert early.kind == SEND


class TestHonestAfterInit:
    def test_lands_latest_graft_first(self):
        action = honest(obs(phase=FAILSAFE, latest_root_ready=True, steps_sealed=2,
                            continuation_ready=True, next_child=9), {})
        assert (action.kind, action.target, action.index) == (APPEND, TARGET_GRAFT, 2)

    def test_continues_through_the_graft_body(self):
        action = honest(obs(phase=FAILSAFE, next_child=9, continuation_ready=True), {})
        assert (action.kind, action.target, action.child) == \
            (APPEND, TARGET_CONTINUE, 9)

    def test_waits_out_the_timelock(self):
        assert honest(obs(phase=FAILSAFE), {}).kind == IDLE


class TestHonestOnchain:
    def test_stipulates(self):
        action = honest(obs(mode="onchain", phase=STIPULATING, owes_message=True), {})
        assert action.kind == SEND
        action = honest(obs(mode="onchain", phase=STIPULATING,
                            anchor_appendable=True), {})
        assert (action.kind, action.target) == (APPEND, TARGET_ANCHOR)

    def test_walks_the_branch(self):
        action = honest(obs(mode="onchain", next_child=6, continuation_ready=True), {})
        assert (action.kind, action.target, action.child) == (APPEND, TARGET_CONTINUE, 6)
        action = honest(obs(mode="onchain", next_child=6,
                            next_child_proposable=True), {})
        assert (action.kind, action.child) == (PROPOSE, 6)

    def test_votes_on_proposals(self):
        assert honest(obs(mode="onchain", proposal=("B", 6), i_agreed=False,
                          next_child=6), {}).kind == AGREE
        assert honest(obs(mode="onchain", proposal=("B", 2), i_agreed=False,
                          next_child=6), {}).kind == REFUSE


class TestStaller:
    def test_cooperates_below_the_limit(self):
        assert staller(obs(owes_message=True, steps_sealed=0),
                       {"stall_after_steps": 1}).kind == SEND

    def test_withholds_at_the_limit(self):
        assert staller(obs(owes_message=True, steps_sealed=1),
                       {"stall_after_steps": 1}).kind == WITHHOLD

    def test_still_agrees_while_stalling(self):
        action = staller(obs(proposal=("A", 6), i_agreed=False, steps_sealed=3),
                         {"stall_after_steps": 0})
        assert action.kind == AGREE

    def test_never_proposes_or_settles(self):
        assert staller(obs(next_child=6, next_child_proposable=True), {}).kind == IDLE
        assert staller(obs(phase=FAILSAFE, latest_root_ready=True), {}).kind == IDLE

    def test_cooperates_during_stipulation(self):
        assert staller(obs(phase=STIPULATING, owes_message=True),
                       {"stall_after_steps": 0}).kind == SEND


class TestPrematureInit:
    def test_fires_while_target_step_is_half_signed(self):
        action = premature_init(obs(steps_sealed=1, owes_message=True),
                                {"trigger_step": 2})
        assert (action.kind, action.target) == (APPEND, TARGET_INIT)

    def test_cooperates_before_the_trigger(self):
        assert premature_init(obs(steps_sealed=0, owes_message=True),
                              {"trigger_step": 2}).kind == SEND
        action = premature_init(obs(steps_sealed=0, next_child=6,
                                    next_child_proposable=True),
                                {"trigger_step": 2})
        assert (action.kind, action.child) == (PROPOSE, 6)

    def test_goes_quiet_after_firing(self):
        assert premature_init(obs(phase=FAILSAFE, owes_message=True),
                              {"trigger_step": 1}).kind == IDLE


class TestRollbackAttacker:
    def test_cooperates_passively(self):
        assert rollback_attacker(obs(owes_message=True), {}).kind == SEND
        assert rollback_attacker(obs(proposal=("A", 6), i_agreed=False), {}).kind == AGREE
        assert rollback_attacker(obs(next_child=6, next_child_proposable=True),
                                 {}).kind == IDLE

    def test_replays_the_oldest_state_after_init(self):
        action = rollback_attacker(obs(phase=FAILSAFE, rollback_target=1), {})
        assert (action.kind, action.target, action.index) == (APPEND, TARGET_GRAFT, 1)

    def test_gives_up_once_init_is_redeemed(self):
        assert rollback_attacker(obs(phase=FAILSAFE, rollback_target=None),
                                 {}).kind == IDLE


class TestSilentAborter:
    def test_agrees_below_the_limit(self):
        assert silent_aborter(obs(proposal=("A", 6), i_agreed=False, steps_sealed=0),
                              {"refuse_at_step": 1}).kind == AGREE

    def test_refuses_at_the_limit(self):
        assert silent_aborter(obs(proposal=("A", 6), i_agreed=False, steps_sealed=1),
                              {"refuse_at_step": 1}).kind == REFUSE

    def test_keeps_its_message_obligations(self):
        assert silent_aborter(obs(owes_message=True, steps_sealed=5),
                              {"refuse_at_step": 0}).kind == SEND

    def test_never_proposes(self):
        assert silent_aborter(obs(next_child=6, next_child_proposable=True),
                              {}).kind == IDLE


class TestOnchainDelegation:
    def test_all_strategies_cooperate_on_chain(self):
        view = obs(mode="onchain", next_child=6, continuation_ready=True)
        for name in ("staller", "premature_init", "rollback_attacker",
                     "silent_aborter"):
            action = STRATEGIES[name](view, {"stall_after_steps": 0,
                                             "trigger_step": 1,
                                             "refuse_at_step": 0})
            assert (action.kind, action.target, action.child) == \
                (APPEND, TARGET_CONTINUE, 6)
