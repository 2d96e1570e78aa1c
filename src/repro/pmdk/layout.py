"""Typed persistent structs: the D_RO/D_RW view onto pool memory.

PMDK workloads declare C structs and access them through ``D_RO(oid)`` /
``D_RW(oid)`` pointers into the memory-mapped pool.  This module gives the
Python workloads the same shape: a :class:`PStruct` subclass declares
``_fields_``; binding it to a pool offset yields an object whose attribute
reads and writes become PM loads and stores through the persistence
domain — and therefore appear in the PM operation trace.

Example::

    class Node(PStruct):
        _fields_ = [
            ("n", U32),
            ("keys", Array(U64, 8)),
            ("slots", Array(OID, 9)),
        ]

    node = pool.typed(oid, Node)     # D_RW(node)
    node.n = node.n + 1              # traced PM load + PM store
    node.keys[0] = 42                # traced array element store
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import PMemError
from repro.instrument.branchcov import untraced
from repro.instrument.context import pm_call_site


class FieldType:
    """A fixed-size scalar field codec."""

    def __init__(self, fmt: str) -> None:
        self.fmt = "<" + fmt
        self.size = _struct.calcsize(self.fmt)

    def pack(self, value: Any) -> bytes:
        return _struct.pack(self.fmt, value)

    def unpack(self, data: bytes) -> Any:
        return _struct.unpack(self.fmt, data)[0]


#: Unsigned / signed scalar field types.
U8 = FieldType("B")
U16 = FieldType("H")
U32 = FieldType("I")
U64 = FieldType("Q")
I64 = FieldType("q")
F64 = FieldType("d")
#: A persistent object identifier — a 64-bit pool offset (0 is NULL).
OID = FieldType("Q")


class Bytes:
    """A fixed-size raw byte field (e.g. inline string storage)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PMemError(f"Bytes field size must be positive, got {size}")
        self.size = size

    def pack(self, value: bytes) -> bytes:
        if len(value) > self.size:
            raise PMemError(f"value of {len(value)} bytes exceeds field of {self.size}")
        return bytes(value).ljust(self.size, b"\0")

    def unpack(self, data: bytes) -> bytes:
        return bytes(data)


class Array:
    """A fixed-length array of a scalar field type."""

    def __init__(self, element: FieldType, count: int) -> None:
        if count <= 0:
            raise PMemError(f"Array count must be positive, got {count}")
        self.element = element
        self.count = count
        self.size = element.size * count


class _BoundArray:
    """Accessor for an Array field bound to (pool, base offset)."""

    __slots__ = ("_pool", "_base", "_spec", "_site")

    def __init__(self, pool: Any, base: int, spec: Array, site: str) -> None:
        self._pool = pool
        self._base = base
        self._spec = spec
        self._site = site

    def _offset_of(self, index: int) -> int:
        if not 0 <= index < self._spec.count:
            raise IndexError(
                f"array index {index} out of range [0, {self._spec.count})"
            )
        return self._base + index * self._spec.element.size

    def __len__(self) -> int:
        return self._spec.count

    @untraced
    def __getitem__(self, index: int) -> Any:
        off = self._offset_of(index)
        site = self._site or pm_call_site(depth=2)
        raw = self._pool._read(off, self._spec.element.size, site=site)
        return self._spec.element.unpack(raw)

    @untraced
    def __setitem__(self, index: int, value: Any) -> None:
        off = self._offset_of(index)
        site = self._site or pm_call_site(depth=2)
        self._pool._write(off, self._spec.element.pack(value), site=site)

    def __iter__(self):
        for i in range(self._spec.count):
            yield self[i]

    def tolist(self) -> List[Any]:
        """Read the whole array as a Python list."""
        return list(self)


class PStructMeta(type):
    """Metaclass computing field offsets and total struct size."""

    def __new__(mcs, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]):
        cls = super().__new__(mcs, name, bases, namespace)
        fields: Sequence[Tuple[str, Any]] = namespace.get("_fields_", ())
        offsets: Dict[str, Tuple[int, Any]] = {}
        cursor = 0
        seen = set()
        for fname, ftype in fields:
            if fname in seen:
                raise PMemError(f"duplicate field {fname!r} in {name}")
            seen.add(fname)
            offsets[fname] = (cursor, ftype)
            cursor += ftype.size
        cls._offsets_ = offsets
        cls._size_ = cursor
        return cls


class PStruct(metaclass=PStructMeta):
    """Base class for persistent struct layouts.

    Instances are *views*: they hold a pool and a byte offset, and every
    attribute access is a traced PM load or store.  Use
    ``pool.typed(oid, Struct)`` to construct one (the D_RW analogue).
    """

    _fields_: Sequence[Tuple[str, Any]] = ()
    _offsets_: Dict[str, Tuple[int, Any]] = {}
    _size_: int = 0

    __slots__ = ("_pool", "_offset", "_site")

    def __init__(self, pool: Any, offset: int, site: str = "") -> None:
        object.__setattr__(self, "_pool", pool)
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "_site", site)

    @property
    def offset(self) -> int:
        """Pool offset of this struct (its OID)."""
        return self._offset

    @classmethod
    def field_offset(cls, name: str) -> int:
        """Byte offset of field ``name`` within the struct."""
        return cls._offsets_[name][0]

    @classmethod
    def field_size(cls, name: str) -> int:
        """Size in bytes of field ``name``."""
        return cls._offsets_[name][1].size

    @untraced
    def field_addr(self, name: str) -> int:
        """Absolute pool offset of field ``name`` in this instance."""
        return self._offset + self.field_offset(name)

    @untraced
    def __getattr__(self, name: str) -> Any:
        try:
            off, ftype = type(self)._offsets_[name]
        except KeyError:
            raise AttributeError(name) from None
        addr = self._offset + off
        if isinstance(ftype, Array):
            return _BoundArray(self._pool, addr, ftype, self._site)
        site = self._site or pm_call_site(depth=2)
        raw = self._pool._read(addr, ftype.size, site=site)
        return ftype.unpack(raw)

    @untraced
    def __setattr__(self, name: str, value: Any) -> None:
        try:
            off, ftype = type(self)._offsets_[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__} has no field {name!r}")
        if isinstance(ftype, Array):
            raise PMemError(f"cannot assign whole array field {name!r}; index it")
        site = self._site or pm_call_site(depth=2)
        self._pool._write(self._offset + off, ftype.pack(value), site=site)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} @0x{self._offset:x}>"


@untraced
def store_field(view: PStruct, field: str, value: Any, site: str) -> None:
    """Store a struct field under an explicit site label.

    Workloads use this at stores that are synthetic-bug injection sites
    (see :mod:`repro.workloads.synthetic`): the explicit label is what a
    ``WRONG_VALUE`` bug keys on, and it keeps the site stable across
    source-line drift.
    """
    off, ftype = type(view)._offsets_[field]
    view._pool._write(view._offset + off, ftype.pack(value), site=site)


@untraced
def load_field(view: PStruct, field: str, site: str) -> Any:
    """Load a struct field under an explicit site label."""
    off, ftype = type(view)._offsets_[field]
    return ftype.unpack(view._pool._read(view._offset + off, ftype.size,
                                         site=site))
