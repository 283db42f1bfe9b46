"""Runtime values and heap objects for the SYNL interpreter.

Values are Python ints/bools, ``None`` (SYNL ``null``), and
:class:`Ref` heap references.  Heap objects come in two shapes: records
(class instances with named fields) and arrays (int-indexed cells).

Heap records are copy-on-write: a write installs a new record in place
of the old one and never mutates a record after creation, so
:meth:`Heap.copy` shares every record with the original.  A record may
therefore cache its canonical form (``canon``, filled in by
:mod:`repro.mc.canonical` on first keying).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InterpError

Value = object  # int | bool | None | Ref


@dataclass(frozen=True)
class Ref:
    oid: int

    def __repr__(self) -> str:
        return f"@{self.oid}"


@dataclass
class HeapObject:
    class_name: str
    fields: dict[str, Value] = field(default_factory=dict)
    #: cached canonical form; valid because the record is never mutated
    canon: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)


@dataclass
class HeapArray:
    class_name: str
    cells: list[Value] = field(default_factory=list)
    #: cached canonical form; valid because the record is never mutated
    canon: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)


class Heap:
    """An object heap with integer object ids."""

    def __init__(self) -> None:
        self.objects: dict[int, HeapObject | HeapArray] = {}
        self._next = 1

    def alloc(self, class_name: str) -> Ref:
        oid = self._next
        self._next += 1
        self.objects[oid] = HeapObject(class_name)
        return Ref(oid)

    def alloc_array(self, class_name: str, size: int) -> Ref:
        if size < 0:
            raise InterpError(f"negative array size {size}")
        oid = self._next
        self._next += 1
        self.objects[oid] = HeapArray(class_name, [0] * size)
        return Ref(oid)

    def get(self, ref: Value) -> HeapObject | HeapArray:
        if not isinstance(ref, Ref):
            raise InterpError(f"dereference of non-reference {ref!r}")
        try:
            return self.objects[ref.oid]
        except KeyError:
            raise InterpError(f"dangling reference {ref!r}") from None

    def read_field(self, ref: Value, name: str) -> Value:
        obj = self.get(ref)
        if not isinstance(obj, HeapObject):
            raise InterpError(f"field access {name} on array {ref!r}")
        return obj.fields.get(name)

    def write_field(self, ref: Value, name: str, value: Value) -> Value:
        """Install a copy of the record with ``name`` set; returns the
        field's previous value."""
        obj = self.get(ref)
        if not isinstance(obj, HeapObject):
            raise InterpError(f"field write {name} on array {ref!r}")
        fields = dict(obj.fields)
        old = fields.get(name)
        fields[name] = value
        self.objects[ref.oid] = HeapObject(obj.class_name, fields)
        return old

    def read_elem(self, ref: Value, index: Value) -> Value:
        obj = self.get(ref)
        if not isinstance(obj, HeapArray):
            raise InterpError(f"index access on non-array {ref!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpError(f"non-integer array index {index!r}")
        if not 0 <= index < len(obj.cells):
            raise InterpError(
                f"array index {index} out of bounds [0, {len(obj.cells)})")
        return obj.cells[index]

    def write_elem(self, ref: Value, index: Value, value: Value) -> Value:
        """Install a copy of the array with cell ``index`` set; returns
        the cell's previous value."""
        obj = self.get(ref)
        if not isinstance(obj, HeapArray):
            raise InterpError(f"index write on non-array {ref!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpError(f"non-integer array index {index!r}")
        if not 0 <= index < len(obj.cells):
            raise InterpError(
                f"array index {index} out of bounds [0, {len(obj.cells)})")
        cells = list(obj.cells)
        old = cells[index]
        cells[index] = value
        self.objects[ref.oid] = HeapArray(obj.class_name, cells)
        return old

    def copy(self) -> "Heap":
        """A heap sharing every (immutable) record with this one."""
        out = Heap.__new__(Heap)
        out.objects = self.objects.copy()
        out._next = self._next
        return out


#: Default pure primitives (§3.2: "primitive operations have no side
#: effect").  Applications register more via ``Interp(primitives=...)``.
def _compute(*args: int) -> int:
    return sum(a for a in args if isinstance(a, int)) + 1


#: Packing helpers for the allocator corpus.  ``Active`` packs
#: (superblock id, credits) as sb*8 + credits; anchors pack
#: (avail, count) as avail*64 + count.
def default_primitives() -> dict:
    return {
        "compute": _compute,
        "inc": lambda v: v + 1,
        "min": min,
        "max": max,
        "packactive": lambda sb, credits: sb * 8 + credits,
        "sbof": lambda a: a // 8,
        "creditsof": lambda a: a % 8,
        "reserve": lambda a, c: -1 if c == 0 else a - 1,
        "availof": lambda anchor: anchor // 64,
        "countof": lambda anchor: anchor % 64,
        "popanchor": lambda anchor, nxt, credits: nxt * 64 + anchor % 64,
        "takeall": lambda anchor: anchor % 64,
        "putcount": lambda anchor, n: anchor + n,
        "packlist": lambda prev, head: prev,
        "sbfirst": lambda sb: sb * 8,
    }
