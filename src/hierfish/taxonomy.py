"""Two-level group -> species label structure and its index arithmetic.

The global species index is group-major (group 0's species first, then
group 1's, ...); `Taxonomy` owns that layout, which every module reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateName,
    EmptyTaxonomy,
    IndexOutOfRange,
    MalformedDocument,
)


@dataclass(frozen=True)
class Taxonomy:
    groups: tuple[str, ...]
    species_by_group: tuple[tuple[str, ...], ...]
    # lookup tables, computed once at construction: group-major offsets,
    # species names in global order, name -> global index, group sizes
    _offsets: tuple[int, ...] = field(init=False, repr=False)
    _species_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _species_ids: dict = field(init=False, repr=False, compare=False)
    _group_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the species axis, read-only arrays: group g owns the columns
    # spans[g] = (starts[g], starts[g] + |S_g|), column s is group column_group[s]
    spans: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    column_group: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.groups) == 0:
            raise EmptyTaxonomy("taxonomy has no groups")
        if len(self.groups) != len(self.species_by_group):
            raise MalformedDocument("groups and species lists disagree in length")
        for g, species in zip(self.groups, self.species_by_group):
            if len(species) == 0:
                raise EmptyTaxonomy(f"group {g!r} has no species")
        if len(set(self.groups)) != len(self.groups):
            raise DuplicateName("duplicate group name")
        all_species = tuple(s for sp in self.species_by_group for s in sp)
        if len(set(all_species)) != len(all_species):
            raise DuplicateName("duplicate species name")
        sizes = tuple(map(len, self.species_by_group))
        ends = np.cumsum(sizes)
        starts = ends - sizes
        tables = {"spans": np.stack([starts, ends], axis=1), "starts": starts,
                  "column_group": np.repeat(np.arange(len(sizes)), sizes)}
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        object.__setattr__(self, "_offsets", tuple(starts.tolist()))
        object.__setattr__(self, "_species_names", all_species)
        object.__setattr__(self, "_species_ids",
                           {name: s for s, name in enumerate(all_species)})
        object.__setattr__(self, "_group_sizes", sizes)

    @property
    def G(self) -> int:
        return len(self.groups)

    @property
    def S(self) -> int:
        return self._offsets[-1] + len(self.species_by_group[-1])

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return self._group_sizes

    def to_global(self, g: int, i: int) -> int:
        if not (0 <= g < self.G):
            raise IndexOutOfRange(f"group index {g} out of range")
        if not (0 <= i < len(self.species_by_group[g])):
            raise IndexOutOfRange(f"local index {i} out of range for group {g}")
        return self._offsets[g] + i

    def to_local(self, s: int) -> tuple[int, int]:
        if not (0 <= s < self.S):
            raise IndexOutOfRange(f"global species index {s} out of range")
        g = self.column_group.item(s)
        return g, s - self._offsets[g]

    def group_of(self, s: int) -> int:
        return self.to_local(s)[0]

    def species_name(self, s: int) -> str:
        g, i = self.to_local(s)
        return self.species_by_group[g][i]

    @property
    def species_names(self) -> tuple[str, ...]:
        return self._species_names

    def group_index(self, name: str) -> int:
        try:
            return self.groups.index(name)
        except ValueError:
            raise IndexOutOfRange(f"unknown group {name!r}") from None

    def species_index(self, name: str) -> int:
        try:
            return self._species_ids[name]
        except (KeyError, TypeError):  # TypeError: unhashable name
            raise IndexOutOfRange(f"unknown species {name!r}") from None

    def to_json(self) -> str:
        doc = {
            "groups": [
                {"name": g, "species": list(sp)}
                for g, sp in zip(self.groups, self.species_by_group)
            ]
        }
        return json.dumps(doc, ensure_ascii=False, indent=2)

    def digest(self) -> str:
        """Stable content hash, used to bind checkpoints to a taxonomy."""
        canon = json.dumps(
            [[g, list(sp)] for g, sp in zip(self.groups, self.species_by_group)],
            ensure_ascii=False,
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_taxonomy(text: str) -> Taxonomy:
    """Parse the taxonomy JSON document; order-preserving."""
    try:
        doc = json.loads(text)
    # invalid, nested too deep, or an integer past Python's digit limit
    except (ValueError, RecursionError) as e:
        raise MalformedDocument(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or "groups" not in doc:
        raise MalformedDocument("expected top-level object with a 'groups' list")
    raw_groups = doc["groups"]
    if not isinstance(raw_groups, list):
        raise MalformedDocument("'groups' must be a list")
    groups = []
    species_by_group = []
    for entry in raw_groups:
        if not isinstance(entry, dict) or "name" not in entry or "species" not in entry:
            raise MalformedDocument("each group needs 'name' and 'species'")
        name = entry["name"]
        species = entry["species"]
        if not isinstance(name, str) or not isinstance(species, list) or not all(
            isinstance(s, str) for s in species
        ):
            raise MalformedDocument("group names and species must be strings")
        groups.append(name)
        species_by_group.append(tuple(species))
    return Taxonomy(groups=tuple(groups), species_by_group=tuple(species_by_group))


def default_taxonomy() -> Taxonomy:
    """Built-in 6-group / 31-species longline taxonomy used by the demo pipeline."""
    return Taxonomy(
        groups=(
            "Skates",
            "Sharks",
            "Roundfish",
            "Flatfishes",
            "Rockfishes",
            "Invertebrates",
        ),
        species_by_group=(
            ("Big Skate", "Longnose Skate"),
            ("Pacific Sleeper Shark", "Spiny Dogfish"),
            (
                "Pacific Cod",
                "Sablefish",
                "Walleye Pollock",
                "Atka Mackerel",
                "Lingcod",
                "Kelp Greenling",
                "Pacific Grenadier",
                "Giant Grenadier",
                "Prowfish",
                "Great Sculpin",
                "Skilfish",
            ),
            (
                "Pacific Halibut",
                "Arrowtooth Flounder",
                "Greenland Turbot",
                "Flathead Sole",
                "Rock Sole",
                "Yellowfin Sole",
                "Rex Sole",
                "Dover Sole",
                "Alaska Plaice",
            ),
            (
                "SRB Rockfish",
                "Pacific Ocean Perch",
                "Dusky Rockfish",
                "Yelloweye Rockfish",
                "Shortspine Thornyhead",
            ),
            ("Giant Octopus", "Squid"),
        ),
    )
