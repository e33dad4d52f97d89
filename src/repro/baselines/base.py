"""Common infrastructure for the state-of-the-art tool re-implementations.

Each baseline re-implements the *network-relevant checks* of one of the
eleven tools compared in Table 3, operating on the same inputs the real tool
consumes: static tools see only the rendered manifests, runtime tools see
the cluster API / runtime observation, hybrid tools and platforms see both.

The goal is that the Table 3 detection matrix emerges from what each tool
actually inspects, rather than being hard-coded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..core import MisconfigClass
from ..k8s import Inventory
from ..probe import RuntimeObservation

#: Tool categories used in Section 4.4.1.
CATEGORY_STATIC = "Static"
CATEGORY_RUNTIME = "Runtime"
CATEGORY_HYBRID = "Hybrid"
CATEGORY_PLATFORM = "Platform"

#: Detection outcomes, matching the symbols of Table 3.
FOUND = "found"
PARTIAL = "partial"
MISSED = "missed"
NOT_APPLICABLE = "n/a"

#: Misconfiguration classes that can only be observed at runtime.  These are
#: the columns the paper marks as "not applicable" for purely static tools.
RUNTIME_ONLY_CLASSES = {
    MisconfigClass.M1,
    MisconfigClass.M2,
    MisconfigClass.M3,
    MisconfigClass.M5A,
}

#: Classes that require correlating several applications across the cluster.
CLUSTER_WIDE_CLASSES = {MisconfigClass.M4_GLOBAL}


@dataclass
class BaselineFinding:
    """One issue reported by a baseline tool."""

    check_id: str
    message: str
    resource: str = ""
    misconfig_class: MisconfigClass | None = None
    partial: bool = False


@dataclass
class BaselineInput:
    """What a tool gets to look at."""

    inventory: Inventory
    observation: RuntimeObservation | None = None
    #: Inventories of the other applications installed in the same cluster
    #: (only security platforms and runtime tools can see these).
    cluster_inventories: list[Inventory] = field(default_factory=list)


class BaselineTool(ABC):
    """Base class of every re-implemented tool."""

    name: str = ""
    version: str = ""
    category: str = CATEGORY_STATIC

    @abstractmethod
    def run(self, data: BaselineInput) -> list[BaselineFinding]:
        """Run the tool's checks and return its findings."""

    # Capability reasoning ------------------------------------------------------
    @property
    def sees_runtime(self) -> bool:
        return self.category in (CATEGORY_RUNTIME, CATEGORY_HYBRID, CATEGORY_PLATFORM)

    def not_applicable(self, misconfig_class: MisconfigClass) -> bool:
        """Whether the class is out of reach *by the nature of the tool*.

        Static tools cannot observe runtime-only issues; tools that analyze
        one application at a time cannot observe cluster-wide collisions.
        These are the ``--`` cells of Table 3.
        """
        if misconfig_class in RUNTIME_ONLY_CLASSES and not self.sees_runtime:
            return True
        if misconfig_class in CLUSTER_WIDE_CLASSES and self.category in (
            CATEGORY_STATIC,
            CATEGORY_RUNTIME,
        ):
            return True
        return False

    def detection_outcome(
        self, misconfig_class: MisconfigClass, findings: list[BaselineFinding]
    ) -> str:
        """Classify the tool's result for one misconfiguration class."""
        relevant = [f for f in findings if f.misconfig_class == misconfig_class]
        if relevant:
            return PARTIAL if all(f.partial for f in relevant) else FOUND
        if self.not_applicable(misconfig_class):
            return NOT_APPLICABLE
        return MISSED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} {self.version}>"
