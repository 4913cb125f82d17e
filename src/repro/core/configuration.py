"""Array configurations and the configuration search space.

A configuration assigns one switch state to every PRESS element.  With N
elements of M states each there are M^N configurations — 64 for the
paper's three 4-state elements, whose exhaustive sweep is the engine of
every experiment in §3.  For larger arrays the space explodes (§4.2
"Navigating the search space"), which is why :mod:`repro.core.search`
implements heuristic searches over this same interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

__all__ = ["ArrayConfiguration", "ConfigurationSpace"]


@dataclass(frozen=True)
class ArrayConfiguration:
    """State indices for each element of an array."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(i < 0 for i in self.indices):
            raise ValueError(f"state indices must be non-negative, got {self.indices}")

    @property
    def num_elements(self) -> int:
        return len(self.indices)

    def with_element_state(self, element: int, state: int) -> "ArrayConfiguration":
        """A copy with one element's state replaced."""
        if not 0 <= element < len(self.indices):
            raise IndexError(f"element {element} out of range")
        updated = list(self.indices)
        updated[element] = state
        return ArrayConfiguration(tuple(updated))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> int:
        return self.indices[index]


@dataclass(frozen=True)
class ConfigurationSpace:
    """The M_1 x M_2 x ... x M_N space of array configurations.

    Attributes
    ----------
    state_counts:
        Number of selectable states per element.
    """

    state_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.state_counts) == 0:
            raise ValueError("configuration space needs at least one element")
        if any(count <= 0 for count in self.state_counts):
            raise ValueError(f"state counts must be positive, got {self.state_counts}")

    @property
    def num_elements(self) -> int:
        return len(self.state_counts)

    @property
    def size(self) -> int:
        """Total number of configurations (M^N for uniform M)."""
        product = 1
        for count in self.state_counts:
            product *= count
        return product

    def validate(self, configuration: ArrayConfiguration) -> None:
        """Raise if a configuration does not belong to this space."""
        if configuration.num_elements != self.num_elements:
            raise ValueError(
                f"configuration has {configuration.num_elements} elements, "
                f"space has {self.num_elements}"
            )
        for element, (index, count) in enumerate(
            zip(configuration.indices, self.state_counts)
        ):
            if index >= count:
                raise ValueError(
                    f"element {element} state {index} out of range (has {count} states)"
                )

    @cached_property
    def _state_count_array(self) -> np.ndarray:
        return np.array(self.state_counts, dtype=np.uintp)

    def __getstate__(self) -> dict:
        # The state-count memo is rebuilt on demand, so it never ships.
        state = self.__dict__.copy()
        state.pop("_state_count_array", None)
        return state

    def check_moves(
        self, elements: Sequence[int], states: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a batch of single-element moves; return them as index arrays.

        Every element must be in range (``IndexError`` otherwise), every
        state in range for its element and the elements distinct
        (``ValueError`` otherwise): a batch applies every move at once, so
        a repeated element would leave which write wins to the scorer.
        Viewed as unsigned, a negative index wraps past every bound, so one
        comparison per array checks both ends of its range.
        """
        element_idx = np.asarray(elements, dtype=np.intp)
        state_idx = np.asarray(states, dtype=np.intp)
        if element_idx.shape != state_idx.shape:
            raise ValueError("elements and states must have matching shapes")
        if element_idx.size == 0:
            return element_idx, state_idx
        num_elements = self.num_elements
        if element_idx.view(np.uintp).max() >= num_elements:
            outside = element_idx[(element_idx < 0) | (element_idx >= num_elements)]
            raise IndexError(f"element {int(outside[0])} out of range")
        counts = self._state_count_array[element_idx]
        invalid = state_idx.view(np.uintp) >= counts
        if invalid.any():
            at = int(np.argmax(invalid))
            raise ValueError(
                f"state {int(state_idx[at])} out of range for element "
                f"{int(element_idx[at])} ({int(counts[at])} states)"
            )
        if np.bincount(element_idx, minlength=num_elements).max() > 1:
            raise ValueError(f"elements must be distinct, got {element_idx.tolist()}")
        return element_idx, state_idx

    def check_perturbations(
        self, masks: np.ndarray, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a batch of perturbations; return them as (P, N) arrays.

        Perturbation ``p`` moves every element ``n`` with ``masks[p, n]``
        to ``states[p, n]``.  Both arrays must have shape (P, N) and every
        masked state must be in range for its element (``ValueError``
        otherwise); unmasked states are ignored.  As in
        :meth:`check_moves`, one unsigned comparison checks both ends of
        every state's range.
        """
        mask_array = np.asarray(masks, dtype=bool)
        state_array = np.asarray(states, dtype=np.intp)
        if mask_array.ndim != 2 or mask_array.shape[1] != self.num_elements or (
            state_array.shape != mask_array.shape
        ):
            raise ValueError(
                f"masks and states must both have shape (P, {self.num_elements}), "
                f"got {mask_array.shape} and {state_array.shape}"
            )
        invalid = mask_array & (state_array.view(np.uintp) >= self._state_count_array)
        if invalid.any():
            probe, element = (int(i) for i in np.argwhere(invalid)[0])
            raise ValueError(
                f"state {int(state_array[probe, element])} out of range for element "
                f"{element} ({self.state_counts[element]} states) in perturbation {probe}"
            )
        return mask_array, state_array

    def all_configurations(self) -> Iterator[ArrayConfiguration]:
        """Enumerate every configuration (lexicographic order).

        For the paper's 4^3 = 64-configuration prototype this is exactly
        the sweep §3.2 iterates "through the 64 combinations 10 times".
        """
        for combo in itertools.product(*(range(count) for count in self.state_counts)):
            yield ArrayConfiguration(combo)

    def random_configuration(self, rng: np.random.Generator) -> ArrayConfiguration:
        """One uniformly random configuration."""
        return ArrayConfiguration(
            tuple(int(rng.integers(0, count)) for count in self.state_counts)
        )

    def neighbors(self, configuration: ArrayConfiguration) -> Iterator[ArrayConfiguration]:
        """All configurations differing in exactly one element's state."""
        self.validate(configuration)
        for element, count in enumerate(self.state_counts):
            for state in range(count):
                if state != configuration.indices[element]:
                    yield configuration.with_element_state(element, state)

    def index_of(self, configuration: ArrayConfiguration) -> int:
        """Lexicographic rank of a configuration (mixed-radix encoding)."""
        self.validate(configuration)
        rank = 0
        for index, count in zip(configuration.indices, self.state_counts):
            rank = rank * count + index
        return rank

    def configuration_at(self, rank: int) -> ArrayConfiguration:
        """Inverse of :meth:`index_of`."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range for space of size {self.size}")
        indices = []
        for count in reversed(self.state_counts):
            rank, digit = divmod(rank, count)
            indices.append(digit)
        return ArrayConfiguration(tuple(reversed(indices)))
