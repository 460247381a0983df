"""Pairwise message exchanges with phase gating: stipulation's, and each
agreed off-chain step's.  A message may only be sent once every
lower-phase message has been delivered, so withholding any single message
freezes the exchange before its last item, which spends the funds, can
be appended.  An exchange's layout (``ExchangeLayout``) is fixed by the
compilation and shared by its runs; a run's ``Exchange`` keeps only each
sender's count.  This module imports nothing from the package.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ExchangeLayout:
    """The immutable part of an exchange: the ``participants`` in name
    order, the ``body`` items and the ``final`` item, each a (subject,
    digest) pair, and where the body and the final part of each queue
    start.

    Every sender's queue has one shape: a transaction set to each other
    participant in name order (if the exchange opens with them, so that
    ``body_at`` is past 0), then every body item to each other participant
    in turn, then ``final`` to each; the three parts are phases 0, 1 and 2,
    or 0 and 1 without transaction sets.  It compares and hashes by its
    fields, tuples and ints, so a trace row that keeps it stays immutable.
    What it derives from them (``size``, ``ends``, ``rank``, ``item_of``)
    is computed on the first read and kept in its ``__dict__``, which
    equality, hashing and the trace ignore, and which every run of a
    compilation shares.
    """
    participants: Tuple[str, ...]
    body: Tuple[Tuple[str, str], ...]
    final: Tuple[str, str]
    body_at: int
    final_at: int

    @classmethod
    def of(cls, participants: Sequence[str], body: Sequence[Tuple[str, str]],
           final: Tuple[str, str], include_txset: bool) -> "ExchangeLayout":
        """The layout of an exchange of every participant's signatures on
        ``body`` and then on ``final``, opening with the transaction sets
        if ``include_txset``."""
        ordered = tuple(sorted(participants))
        body_at = len(ordered) - 1 if include_txset else 0
        return cls(ordered, tuple(body), final, body_at, body_at + (len(ordered) - 1) * len(body))

    @cached_property
    def size(self) -> int:
        """The length of every queue."""
        return self.final_at + len(self.participants) - 1

    @cached_property
    def ends(self) -> List[int]:
        """Where each phase with messages ends in every queue, in order."""
        return sorted({self.body_at, self.final_at, self.size} - {0})

    @cached_property
    def rank(self) -> Dict[str, int]:
        """Each participant's place in name order."""
        return {p: i for i, p in enumerate(self.participants)}

    @property
    def txset_count(self) -> int:
        """The count a transaction set announces: the body and the final item."""
        return len(self.body) + 1

    def txsets_end(self, start: int, stop: int) -> int:
        """Where the transaction sets among positions ``start`` to ``stop``
        of a queue end and its signatures start: transaction sets come
        first in every queue."""
        return min(max(start, self.body_at), stop)

    def segments(self, sender: str, start: int,
                 stop: int) -> Iterator[Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]]:
        """The messages at positions ``start`` to ``stop`` of ``sender``'s
        queue, in order, as runs (recipient, items): the (subject, digest)
        items signed to ``recipient``, one slice of ``body`` or
        ``(final,)``, or None for its transaction set."""
        # ``sender``'s place: the recipients are the others in name order.
        me, at = self.rank[sender], start
        while at < stop:
            if at < self.body_at:
                to, items = at, None
            elif at < self.final_at:
                to, item = divmod(at - self.body_at, len(self.body))
                items = self.body[item:item + stop - at]
            else:
                to, items = at - self.final_at, (self.final,)
            yield self.participants[to + (to >= me)], items
            at += len(items) if items else 1

    @cached_property
    def item_of(self) -> Dict[str, int]:
        """Each body digest's item: its index in ``body``.  Built on the
        first read, which only ``Exchange.received`` makes, and only for a
        count within a body."""
        return {digest: i for i, (_, digest) in enumerate(self.body)}


class Exchange:
    """One run's progress through an exchange laid out as ``layout``: one
    count per participant, ``sent[sender]`` of whose messages are delivered.

    Phase k opens only once every phase < k message is delivered, and each
    sender sends its queue in order.  A phase ends at the same position of
    every queue, so the lowest phase with a message undelivered is the one
    holding the least count short of the queue's end, and every query is
    arithmetic on the counts: one loop over them in name order, which
    stops at its answer where it can, and a bisection of the layout's
    phase ends.  The counts are also the only record of who holds which
    signature (``received``), read at the item the layout's ``item_of``
    gives a body digest where the count alone cannot tell.
    """

    def __init__(self, layout: ExchangeLayout) -> None:
        self.layout = layout
        self.sent: Dict[str, int] = dict.fromkeys(layout.participants, 0)

    def _open_until(self, sender: Optional[str]) -> int:
        """Where the open part of ``sender``'s queue ends: at the end of
        the phase holding the least count of the others short of the end.
        No message ``sender`` sends moves that count."""
        least = size = self.layout.size
        for other, count in self.sent.items():
            if count < least and other != sender:
                least = count
        ends = self.layout.ends
        return ends[bisect_right(ends, least)] if least < size else size

    def owes(self, sender: str) -> bool:
        """Is ``sender``'s next message open now?"""
        count = self.sent.get(sender)
        return count is not None and count < self._open_until(sender)

    def deliver(self, sender: str) -> range:
        """Send every message of ``sender`` that is open now, and return
        their positions in its queue; none if its next message waits on
        a lower phase."""
        start = self.sent.get(sender)
        if start is None:
            return range(0)
        end = max(start, self._open_until(sender))
        self.sent[sender] = end
        return range(start, end)

    def received(self, recipient: str, signer: str, digest: str) -> bool:
        """Has ``signer``'s signature on ``digest``, one the layout signs,
        reached ``recipient``?  It has once ``signer``'s count is past that
        message's position.  A count past the whole body ``signer`` sends
        ``recipient``, or short of all of it, answers for every body item;
        only a count within it needs the item (``ExchangeLayout.item_of``),
        so a layout whose body no witness reads mid-exchange, such as that
        of every subtree whose root has landed, never builds its index."""
        rank = self.layout.rank
        if recipient == signer or recipient not in rank or signer not in rank:
            return False
        # ``recipient``'s place among those ``signer`` sends to.
        to = rank[recipient] - (rank[recipient] > rank[signer])
        layout, count = self.layout, self.sent[signer]
        if digest == layout.final[1]:
            return count > layout.final_at + to
        start = layout.body_at + to * len(layout.body)
        if start < count < start + len(layout.body):
            return count > start + layout.item_of[digest]
        return count > start

    @property
    def complete(self) -> bool:
        size = self.layout.size
        return min(self.sent.values(), default=size) == size

    def _first_short(self, end: int, skip: Optional[str] = None) -> Optional[str]:
        """The first sender by name, other than ``skip``, whose count is
        short of ``end``."""
        for sender, count in self.sent.items():
            if count < end and sender != skip:
                return sender
        return None

    def pending_from_others(self, me: str) -> bool:
        return self._first_short(self.layout.size, me) is not None

    def first_blocker(self) -> Optional[str]:
        """Sender of the first undelivered message, listing the plan phase
        by phase and sender by sender: the first sender by name whose
        count stops in the lowest incomplete phase — with phase gating,
        the participant holding everyone up."""
        return self._first_short(self._open_until(None))
