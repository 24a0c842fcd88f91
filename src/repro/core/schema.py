"""OCB schema model: classes instantiated from the CLASS metaclass (Fig. 1).

A :class:`ClassDescriptor` is one instantiation of the paper's ``CLASS``
metaclass: ``TRef`` (reference types), ``CRef`` (referenced classes),
``InstanceSize`` (BASESIZE plus inherited sizes), and the ``Iterator`` of
its objects.  :class:`Schema` bundles the NC descriptors with the
reference-type semantics and offers the graph queries the consistency step
and the workload need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.parameters import ReferenceTypeSpec
from repro.errors import GenerationError, ParameterError

__all__ = ["ClassDescriptor", "Schema"]


@dataclass
class ClassDescriptor:
    """One OCB class (an instantiation of the CLASS metaclass)."""

    cid: int
    max_nref: int
    base_size: int
    tref: List[int] = field(default_factory=list)
    cref: List[Optional[int]] = field(default_factory=list)
    instance_size: int = 0
    iterator: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cid < 1:
            raise ParameterError(f"class id must be >= 1, got {self.cid}")
        if self.max_nref < 0:
            raise ParameterError(f"MAXNREF must be >= 0, got {self.max_nref}")
        if self.base_size < 0:
            raise ParameterError(f"BASESIZE must be >= 0, got {self.base_size}")
        if not self.instance_size:
            self.instance_size = self.base_size

    def references(self) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Yield ``(index, type_id, target_class_or_None)`` triples."""
        for index, (type_id, target) in enumerate(zip(self.tref, self.cref)):
            yield index, type_id, target

    @property
    def live_reference_count(self) -> int:
        """References that survived the consistency step (non-NIL)."""
        return sum(1 for target in self.cref if target is not None)

    @property
    def population(self) -> int:
        """Number of objects instantiated from this class."""
        return len(self.iterator)


class Schema:
    """The NC class descriptors plus reference-type semantics."""

    def __init__(self, classes: Sequence[ClassDescriptor],
                 reference_types: Sequence[ReferenceTypeSpec]) -> None:
        self._classes: Dict[int, ClassDescriptor] = {}
        for descriptor in classes:
            if descriptor.cid in self._classes:
                raise GenerationError(f"duplicate class id {descriptor.cid}")
            self._classes[descriptor.cid] = descriptor
        self._types: Dict[int, ReferenceTypeSpec] = {
            spec.type_id: spec for spec in reference_types}
        for descriptor in classes:
            for type_id in descriptor.tref:
                if type_id not in self._types:
                    raise GenerationError(
                        f"class {descriptor.cid} uses unknown reference "
                        f"type {type_id}")

    def clone(self) -> "Schema":
        """An independent copy: descriptors with their own lists.

        The reference-type specs are immutable and shared.  Mutating the
        copy's class iterators (inserts and deletes) leaves this schema
        untouched.
        """
        twin = Schema.__new__(Schema)
        twin._classes = {
            cid: replace(descriptor, tref=list(descriptor.tref),
                         cref=list(descriptor.cref),
                         iterator=list(descriptor.iterator))
            for cid, descriptor in self._classes.items()}
        twin._types = dict(self._types)
        return twin

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    @property
    def num_classes(self) -> int:
        """NC."""
        return len(self._classes)

    def class_ids(self) -> List[int]:
        """Sorted class ids."""
        return sorted(self._classes)

    def get(self, cid: int) -> ClassDescriptor:
        """Descriptor for class *cid*."""
        try:
            return self._classes[cid]
        except KeyError:
            raise GenerationError(f"unknown class id {cid}") from None

    def __iter__(self) -> Iterator[ClassDescriptor]:
        for cid in self.class_ids():
            yield self._classes[cid]

    def __contains__(self, cid: int) -> bool:
        return cid in self._classes

    def ref_type(self, type_id: int) -> ReferenceTypeSpec:
        """Semantics of a reference type id."""
        try:
            return self._types[type_id]
        except KeyError:
            raise GenerationError(f"unknown reference type {type_id}") from None

    def reference_types(self) -> List[ReferenceTypeSpec]:
        """All reference-type specs, sorted by id."""
        return [self._types[i] for i in sorted(self._types)]

    # ------------------------------------------------------------------ #
    # Graph queries
    # ------------------------------------------------------------------ #

    def typed_edges(self, type_id: int) -> Dict[int, List[int]]:
        """Class-level adjacency restricted to references of *type_id*."""
        adjacency: Dict[int, List[int]] = {}
        for descriptor in self:
            targets = [target for index, t, target in descriptor.references()
                       if t == type_id and target is not None]
            if targets:
                adjacency[descriptor.cid] = targets
        return adjacency

    def inheritance_parents(self, cid: int) -> List[int]:
        """Classes *cid* directly inherits from (via inheritance-typed refs)."""
        descriptor = self.get(cid)
        parents = []
        for _, type_id, target in descriptor.references():
            if target is None:
                continue
            if self.ref_type(type_id).is_inheritance:
                parents.append(target)
        return parents

    def inheritance_ancestors(self, cid: int) -> Set[int]:
        """All distinct inheritance ancestors of *cid* (excludes *cid*)."""
        ancestors: Set[int] = set()
        stack = list(self.inheritance_parents(cid))
        while stack:
            parent = stack.pop()
            if parent == cid or parent in ancestors:
                continue
            ancestors.add(parent)
            stack.extend(self.inheritance_parents(parent))
        return ancestors

    def has_cycle(self, type_id: int) -> bool:
        """Whether the class graph of *type_id* references contains a cycle."""
        adjacency = self.typed_edges(type_id)
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {}

        def visit(node: int) -> bool:
            colour[node] = GREY
            for target in adjacency.get(node, ()):
                state = colour.get(target, WHITE)
                if state == GREY:
                    return True
                if state == WHITE and visit(target):
                    return True
            colour[node] = BLACK
            return False

        return any(visit(node) for node in adjacency
                   if colour.get(node, WHITE) == WHITE)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def compute_instance_sizes(self) -> None:
        """Set ``InstanceSize = BASESIZE + Σ BASESIZE(ancestors)``.

        Equivalent to the paper's incremental "add BASESIZE to each
        subclass while browsing the inheritance graph", which is well
        defined because the graph is acyclic after the consistency step.
        """
        for descriptor in self:
            inherited = sum(self.get(a).base_size
                            for a in self.inheritance_ancestors(descriptor.cid))
            descriptor.instance_size = descriptor.base_size + inherited

    def total_population(self) -> int:
        """Total objects across all iterators (should equal NO)."""
        return sum(descriptor.population for descriptor in self)

    def describe(self) -> str:
        """Multi-line human-readable schema summary."""
        lines = [f"Schema: {self.num_classes} classes, "
                 f"{len(self._types)} reference types"]
        for descriptor in self:
            lines.append(
                f"  class {descriptor.cid}: MAXNREF={descriptor.max_nref} "
                f"BASESIZE={descriptor.base_size} "
                f"InstanceSize={descriptor.instance_size} "
                f"live_refs={descriptor.live_reference_count} "
                f"population={descriptor.population}")
        return "\n".join(lines)
