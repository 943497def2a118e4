"""Consistent-hash ring routing graph keys to fleet workers.

The fleet's router must send the same graph to the same worker so that
worker's private result LRU runs hot on a disjoint slice of
the key space — and it must keep doing so *stably* as workers die and
rejoin.  A modulo assignment reshuffles almost every key when the
worker count changes; a consistent-hash ring with virtual nodes moves
only the keys that mapped to the departed worker (~1/N of the space),
so a single worker death does not flush the other N-1 LRUs.

Keys are :func:`repro.perf.cache.graph_key` sha256 hexdigests; their
leading 64 bits are already uniform, so the key side needs no second
hash.  Worker placement hashes ``"worker#replica"`` the same way.
:meth:`HashRing.candidates` walks clockwise from the key's point and
returns *distinct* workers in ring order — candidate 0 is the home
worker, candidates 1.. are the deterministic failover sequence the
service retries through when the home worker dies mid-request.

All methods take the ring's own lock: the service mutates membership
from supervisor-driven restart paths while client threads route, and
the C001/C002 concurrency lint holds this class to the same guard
discipline as the rest of the serving path.
"""

from __future__ import annotations

import bisect
import hashlib

from ..lint.sanitizer import new_lock

__all__ = ["HashRing"]

#: virtual nodes per worker on the ring
_REPLICAS = 64


def _point(token: str) -> int:
    """A 64-bit ring position for an arbitrary token."""
    return int(hashlib.sha256(token.encode("utf-8")).hexdigest()[:16], 16)


def key_point(key: str) -> int:
    """Ring position of a request key.

    ``graph_key`` hexdigests are uniform already — slice the leading 64
    bits directly; anything non-hex is hashed like a worker token.
    """
    try:
        return int(key[:16], 16)
    except ValueError:
        return _point(key)


class HashRing:
    """Virtual-node consistent-hash ring over integer worker ids."""

    def __init__(self):
        self._lock = new_lock("HashRing._lock")
        #: sorted, parallel: vnode ring positions and their worker ids
        self._points: list[int] = []
        self._owners: list[int] = []
        self._members: set[int] = set()

    def _vnode_points(self, worker_id: int) -> list[int]:
        return [_point(f"worker-{worker_id}#{i}")
                for i in range(_REPLICAS)]

    def add(self, worker_id: int) -> None:
        """Place ``worker_id``'s virtual nodes; idempotent."""
        with self._lock:
            if worker_id in self._members:
                return
            self._members.add(worker_id)
            for p in self._vnode_points(worker_id):
                idx = bisect.bisect_left(self._points, p)
                self._points.insert(idx, p)
                self._owners.insert(idx, worker_id)

    def remove(self, worker_id: int) -> None:
        """Drop ``worker_id`` from the ring; idempotent."""
        with self._lock:
            if worker_id not in self._members:
                return
            self._members.discard(worker_id)
            keep = [(p, w) for p, w in zip(self._points, self._owners)
                    if w != worker_id]
            self._points = [p for p, _ in keep]
            self._owners = [w for _, w in keep]

    def candidates(self, key: str, limit: int | None = None) -> list[int]:
        """Distinct workers clockwise from ``key``'s ring position.

        ``candidates(key)[0]`` is the key's home worker; the rest are
        the stable failover order.  Empty when the ring is empty.
        """
        with self._lock:
            if not self._points:
                return []
            want = len(self._members) if limit is None \
                else min(limit, len(self._members))
            start = bisect.bisect_right(self._points, key_point(key))
            out: list[int] = []
            n = len(self._owners)
            for i in range(n):
                w = self._owners[(start + i) % n]
                if w not in out:
                    out.append(w)
                    if len(out) >= want:
                        break
            return out

    def members(self) -> list[int]:
        with self._lock:
            return sorted(self._members)

    def __contains__(self, worker_id: int) -> bool:
        with self._lock:
            return worker_id in self._members

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)
