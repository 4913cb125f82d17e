"""The PRESS array: an installed set of elements and its switch space.

For a given array configuration, each non-terminated element contributes
a two-hop TX -> element -> RX term whose complex gain carries the
element's switched reflection coefficient and whose delay includes the
waveguide stub.  The channel basis (:mod:`repro.core.basis`) composes that
superposition — ``ambient + sum_n E_n(c_n)``, the one §2's inverse problem
reasons about — for every configuration at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..em.geometry import Point
from .configuration import ArrayConfiguration, ConfigurationSpace
from .element import PressElement

__all__ = ["PressArray"]


@dataclass(frozen=True)
class PressArray:
    """An installed array of PRESS elements.

    Attributes
    ----------
    elements:
        The elements, in control-plane order.
    """

    elements: tuple[PressElement, ...]

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise ValueError("a PRESS array needs at least one element")
        names = [element.name for element in self.elements]
        if len(set(names)) != len(names):
            raise ValueError(f"element names must be unique, got {names}")
        # The configuration space is derived from the (immutable) elements;
        # build it once here instead of rebuilding and re-validating on
        # every describe/basis call.
        object.__setattr__(
            self,
            "_space",
            ConfigurationSpace(tuple(element.num_states for element in self.elements)),
        )

    @staticmethod
    def from_elements(elements: Iterable[PressElement]) -> "PressArray":
        return PressArray(tuple(elements))

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def configuration_space(self) -> ConfigurationSpace:
        """The M_1 x ... x M_N space of this array's switch settings (cached)."""
        return self._space  # type: ignore[attr-defined]

    def describe(self, configuration: ArrayConfiguration) -> str:
        """Label a configuration the way the paper's figures do: "(0.5:, 0, T)"."""
        self.configuration_space().validate(configuration)
        labels = [
            element.state(index).label
            for element, index in zip(self.elements, configuration.indices)
        ]
        return "(" + ", ".join(labels) + ")"

    def aimed_at(self, target: Point) -> "PressArray":
        """A copy with every directional element boresighted at ``target``."""
        return PressArray(
            tuple(element.pointed_at(target) for element in self.elements)
        )
