"""Copy-on-write page-state arrays with chunked lazy materialization.

TrEnv's headline property is that ``mmt_attach`` copies *metadata only*,
so attach cost is (nearly) independent of image size (§5.1, Figure 11).
An address space keeps its PTEs in one flat table (three arrays over all
of its pages, :mod:`repro.mem.address_space`); deep-copying that table
per attach would make warm starts O(image) in *host* wall-clock — ~4 MB
of array copies for the 855 MB IR image — even though the simulated cost
is metadata-only.

:class:`CowPageArray` restores the paper's asymptotics host-side: an
attached table shares the template's (frozen) array and materialises
private state in fixed-size chunks only when written, exactly like the
kernel's CoW page tables.  Attach therefore costs three wrapper objects
whatever the image size.  Reads gather through the shared base with
materialised chunks overlaid; once most chunks are private the array
collapses to a dense copy so steady-state instances pay plain ndarray
speed.

The class implements just enough of the ndarray protocol for the fault
path (`arr[idx]`, `arr[idx] = v`, `arr[:] = v`, `==`, ``np.asarray``) to
stay transparent to existing callers and tests; :class:`CowWindow` is the
same protocol over one VMA's page range of a table.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

#: Pages per CoW chunk (a 16 MiB run of simulated memory; a 4 KiB private
#: uint8 chunk host-side).  Power of two so chunk ids are a shift.
CHUNK_PAGES = 4096
_SHIFT = 12
_MASK = CHUNK_PAGES - 1

#: Collapse to a dense private array once this fraction of chunks has
#: materialised — past that point the overlay bookkeeping costs more than
#: it saves.
_COLLAPSE_FRACTION = 0.5


class TemplateBase:
    """A frozen template array shared by any number of CoW clones.

    Freezing (``writeable=False``) turns accidental writes to shared
    template state into a hard error — the analogue of the kernel
    write-protecting template page tables.  Count queries are cached per
    page range (a whole table, one VMA, one chunk), so per-attach
    accounting is O(1) instead of O(pages).
    """

    __slots__ = ("array", "_counts")

    def __init__(self, array: np.ndarray):
        array.setflags(write=False)
        self.array = array
        self._counts: Dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.array)

    def count(self, value, lo: int = 0, hi: Optional[int] = None) -> int:
        """``count_nonzero(array[lo:hi] == value)``, cached."""
        if hi is None:
            hi = len(self.array)
        key = (int(value), lo, hi)
        hit = self._counts.get(key)
        if hit is None:
            hit = int(np.count_nonzero(self.array[lo:hi] == value))
            self._counts[key] = hit
        return hit


class CowPageArray:
    """A lazily-materialising copy-on-write view of a :class:`TemplateBase`."""

    __slots__ = ("_base", "_chunks", "_dense")

    def __init__(self, base: TemplateBase):
        self._base: Optional[TemplateBase] = base
        self._chunks: Dict[int, np.ndarray] = {}
        self._dense: Optional[np.ndarray] = None

    # -- introspection -----------------------------------------------------------

    @property
    def dtype(self):
        if self._dense is not None:
            return self._dense.dtype
        return self._base.array.dtype

    @property
    def materialized_chunks(self) -> int:
        """Private chunks held (0 right after a clone); -1 once dense."""
        if self._dense is not None:
            return -1
        return len(self._chunks)

    @property
    def private_nbytes(self) -> int:
        """Host bytes of private (non-shared) storage."""
        if self._dense is not None:
            return self._dense.nbytes
        return sum(c.nbytes for c in self._chunks.values())

    def __len__(self) -> int:
        if self._dense is not None:
            return len(self._dense)
        return len(self._base.array)

    # -- materialization ---------------------------------------------------------

    def _chunk(self, cid: int) -> np.ndarray:
        chunk = self._chunks.get(cid)
        if chunk is None:
            lo = cid << _SHIFT
            chunk = self._base.array[lo:lo + CHUNK_PAGES].copy()
            self._chunks[cid] = chunk
        return chunk

    def to_ndarray(self) -> np.ndarray:
        """A fresh dense copy (callers may mutate it freely)."""
        if self._dense is not None:
            return self._dense.copy()
        out = self._base.array.copy()
        for cid, chunk in self._chunks.items():
            lo = cid << _SHIFT
            out[lo:lo + len(chunk)] = chunk
        return out

    def _collapse(self) -> None:
        dense = self._base.array.copy()
        for cid, chunk in self._chunks.items():
            lo = cid << _SHIFT
            dense[lo:lo + len(chunk)] = chunk
        self._dense = dense
        self._base = None
        self._chunks = {}

    def _maybe_collapse(self) -> None:
        # Single-chunk arrays (tables under CHUNK_PAGES) go dense on
        # their first write: one materialised chunk IS the array, and
        # staying chunked would tax every later gather with overlay work.
        n_chunks = (len(self._base.array) + _MASK) >> _SHIFT
        if len(self._chunks) >= max(1.0, n_chunks * _COLLAPSE_FRACTION):
            self._collapse()

    # -- ndarray protocol (the subset the fault path and tests use) ---------------

    def __array__(self, dtype=None, copy=None):
        out = self.to_ndarray()
        if dtype is not None and out.dtype != dtype:
            out = out.astype(dtype)
        return out

    def __getitem__(self, key):
        if self._dense is not None:
            return self._dense[key]
        if isinstance(key, (int, np.integer)):
            cid = int(key) >> _SHIFT
            chunk = self._chunks.get(cid)
            if chunk is not None:
                return chunk[int(key) & _MASK]
            return self._base.array[key]
        if isinstance(key, slice):
            return self.to_ndarray()[key]
        idx = np.asarray(key)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        out = self._base.array[idx]
        if self._chunks and len(idx):
            # Overlay by iterating the (few, pre-collapse) materialised
            # chunks — no hashing/unique pass over the indices.
            cids = idx >> _SHIFT
            for cid, chunk in self._chunks.items():
                m = cids == cid
                if m.any():
                    out[m] = chunk[idx[m] & _MASK]
        return out

    def __setitem__(self, key, value) -> None:
        if self._dense is not None:
            self._dense[key] = value
            return
        if isinstance(key, slice):
            if key == slice(None):
                # Full overwrite: drop the shared base entirely.
                base = self._base.array
                if np.isscalar(value):
                    self._dense = np.full(len(base), value, dtype=base.dtype)
                else:
                    value = np.asarray(value, dtype=base.dtype)
                    if len(value) != len(base):
                        raise ValueError(
                            f"length mismatch: {len(value)} != {len(base)}")
                    self._dense = value.copy()
                self._base = None
                self._chunks = {}
                return
            self._collapse()
            self._dense[key] = value
            return
        if isinstance(key, (int, np.integer)):
            self._chunk(int(key) >> _SHIFT)[int(key) & _MASK] = value
            self._maybe_collapse()
            return
        idx = np.asarray(key)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        if len(idx) == 0:
            return
        scalar = np.isscalar(value)
        if not scalar:
            value = np.asarray(value)
        cids = idx >> _SHIFT
        touched = set(cids.tolist())
        n_chunks = (len(self._base.array) + _MASK) >> _SHIFT
        after = len(touched | self._chunks.keys())
        if after >= max(1.0, n_chunks * _COLLAPSE_FRACTION):
            # The write alone crosses the collapse threshold: densify
            # first and scatter once, skipping per-chunk materialisation.
            self._collapse()
            self._dense[idx] = value
            return
        for cid in sorted(touched):
            m = cids == cid
            chunk = self._chunk(cid)
            if scalar:
                chunk[idx[m] & _MASK] = value
            else:
                chunk[idx[m] & _MASK] = value[m]

    def __eq__(self, other):  # type: ignore[override]
        return self.to_ndarray() == other

    def __ne__(self, other):  # type: ignore[override]
        return self.to_ndarray() != other

    __hash__ = None  # array-like equality semantics => unhashable

    # -- fast queries --------------------------------------------------------------

    def count(self, value, lo: int = 0, hi: Optional[int] = None) -> int:
        """``count_nonzero(self[lo:hi] == value)`` in O(materialized
        chunks)."""
        if self._dense is not None:
            return int(np.count_nonzero(self._dense[lo:hi] == value))
        base = self._base
        if hi is None:
            hi = len(base.array)
        total = base.count(value, lo, hi)
        for cid, chunk in self._chunks.items():
            c_lo = cid << _SHIFT
            a, b = max(lo, c_lo), min(hi, c_lo + len(chunk))
            if a < b:
                total += int(np.count_nonzero(chunk[a - c_lo:b - c_lo]
                                              == value))
                total -= base.count(value, a, b)
        return total

    def copy(self) -> "CowPageArray":
        out = CowPageArray.__new__(CowPageArray)
        if self._dense is not None:
            out._base = None
            out._chunks = {}
            out._dense = self._dense.copy()
        else:
            out._base = self._base
            out._chunks = {cid: c.copy() for cid, c in self._chunks.items()}
            out._dense = None
        return out


class CowWindow:
    """Pages ``[lo, hi)`` of a :class:`CowPageArray` (one VMA of a table).

    Indexing is window-relative; every read and write goes through to the
    underlying array, so private chunks materialise there.
    """

    __slots__ = ("_arr", "_lo", "_hi")

    def __init__(self, arr: CowPageArray, lo: int, hi: int):
        self._arr = arr
        self._lo = lo
        self._hi = hi

    @property
    def dtype(self):
        return self._arr.dtype

    def __len__(self) -> int:
        return self._hi - self._lo

    def _index(self, key):
        """Absolute page index/indices of ``key`` (int, slice, mask or
        array)."""
        if isinstance(key, (int, np.integer)):
            key = int(key)
            if not -len(self) <= key < len(self):
                raise IndexError("page index out of range for VMA")
            return self._lo + key % len(self)
        if isinstance(key, slice):
            return np.arange(self._lo, self._hi)[key]
        idx = np.asarray(key)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        idx = np.where(idx < 0, idx + len(self), idx)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError("page index out of range for VMA")
        return idx + self._lo

    def __getitem__(self, key):
        return self._arr[self._index(key)]

    def __setitem__(self, key, value) -> None:
        idx = self._index(key)
        if not isinstance(idx, int) and not np.isscalar(value):
            value = np.asarray(value)
            if value.shape != idx.shape:
                raise ValueError(
                    f"shape mismatch: {value.shape} != {idx.shape}")
        self._arr[idx] = value

    def __array__(self, dtype=None, copy=None):
        out = self._arr[np.arange(self._lo, self._hi)]
        if dtype is not None and out.dtype != dtype:
            out = out.astype(dtype)
        return out

    def __eq__(self, other):  # type: ignore[override]
        return np.asarray(self) == other

    def __ne__(self, other):  # type: ignore[override]
        return np.asarray(self) != other

    __hash__ = None  # array-like equality semantics => unhashable

    def count(self, value) -> int:
        return self._arr.count(value, self._lo, self._hi)


# -- helpers for code that handles both ndarray and CowPageArray ------------------

def count_equal(arr, value) -> int:
    """Vector-count of ``arr == value`` using the cheapest available path."""
    if isinstance(arr, (CowPageArray, CowWindow)):
        return arr.count(value)
    return int(np.count_nonzero(arr == value))


def as_dense(arr) -> np.ndarray:
    """A plain ndarray view/copy of ``arr`` (dense copy for CoW arrays)."""
    if isinstance(arr, (CowPageArray, CowWindow)):
        return np.asarray(arr)
    return arr
