"""Application specifications: the intermediate model between injection plans
and concrete Helm charts.

An :class:`AppSpec` describes one synthetic application the way a chart
author would think about it: a set of components (compute units) with
declared and actually-opened ports, the services that front them, and the
network-policy posture.  The builder turns an AppSpec into a real Helm chart
plus the container behaviours the cluster simulator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Network-policy posture of a chart.
NETPOL_NONE = "none"                       # chart ships no NetworkPolicy at all
NETPOL_DISABLED = "disabled"               # template exists but values disable it (strict rules)
NETPOL_DISABLED_LOOSE = "disabled-loose"   # disabled by default; allows all ports when enabled
NETPOL_ENABLED_STRICT = "strict"           # enabled, allows only declared service ports
NETPOL_ENABLED_ALLOW_ALL = "loose"         # enabled, but allows every port
NETPOL_ENABLED_MISMATCH = "mismatch"       # enabled, but selects labels that match nothing

NETPOL_MODES = (
    NETPOL_NONE,
    NETPOL_DISABLED,
    NETPOL_DISABLED_LOOSE,
    NETPOL_ENABLED_STRICT,
    NETPOL_ENABLED_ALLOW_ALL,
    NETPOL_ENABLED_MISMATCH,
)


@dataclass
class PortSpec:
    """One application port of a component."""

    number: int
    name: str = ""
    protocol: str = "TCP"
    #: The port appears in the pod template's containerPort list.
    declared: bool = True
    #: The application actually listens on the port at runtime.
    opened: bool = True


@dataclass
class ComponentSpec:
    """One compute unit of the application."""

    name: str
    kind: str = "Deployment"  # Deployment | StatefulSet | DaemonSet
    replicas: int = 1
    ports: list[PortSpec] = field(default_factory=list)
    #: Number of dynamic (ephemeral) ports opened at runtime.
    dynamic_ports: int = 0
    host_network: bool = False
    #: Explicit pod labels; ``None`` derives unique labels from the app/component.
    labels: dict[str, str] | None = None
    image: str = ""

    def declared_ports(self) -> list[PortSpec]:
        return [port for port in self.ports if port.declared]


@dataclass
class ServicePortSpec:
    """One service port: the exposed port and the targeted container port."""

    port: int
    target_port: int | str | None = None
    name: str = ""
    protocol: str = "TCP"


@dataclass
class ServiceSpec:
    """A service fronting one (or more) components."""

    name: str
    #: Component names whose labels the selector must match.  The builder
    #: derives the selector from the first component unless ``selector`` is
    #: given explicitly.
    component: str = ""
    selector: dict[str, str] | None = None
    ports: list[ServicePortSpec] = field(default_factory=list)
    headless: bool = False


@dataclass
class NetworkPolicySpec:
    """The chart's network-policy posture."""

    mode: str = NETPOL_NONE
    #: Ports explicitly allowed when the policy is strict; empty derives the
    #: list from the declared service target ports.
    allowed_ports: list[int] = field(default_factory=list)

    @property
    def defined(self) -> bool:
        return self.mode != NETPOL_NONE

    @property
    def enabled_by_default(self) -> bool:
        return self.mode in (NETPOL_ENABLED_STRICT, NETPOL_ENABLED_ALLOW_ALL, NETPOL_ENABLED_MISMATCH)


@dataclass
class AppSpec:
    """A complete synthetic application."""

    name: str
    organization: str
    version: str = "1.0.0"
    archetype: str = "web"
    description: str = ""
    components: list[ComponentSpec] = field(default_factory=list)
    services: list[ServiceSpec] = field(default_factory=list)
    network_policy: NetworkPolicySpec = field(default_factory=NetworkPolicySpec)
    #: The app carries the shared "global collision" marker component (M4*).
    global_collision_marker: bool = False

    def component(self, name: str) -> ComponentSpec | None:
        for component in self.components:
            if component.name == name:
                return component
        return None


@dataclass
class InjectionPlan:
    """How many findings of each class one application must exhibit.

    This is the contract between the catalogue (which distributes the Table 2
    per-dataset totals across applications) and the builder (which constructs
    an application exhibiting exactly those misconfigurations).
    """

    m1: int = 0
    m2: int = 0
    m3: int = 0
    m4a: int = 0
    m4b: int = 0
    m4c: int = 0
    m5a: int = 0
    m5b: int = 0
    m5c: int = 0
    m5d: int = 0
    m6: bool = False
    m7: int = 0
    #: Participates in the dataset-wide global label collision group (M4*).
    global_collision: bool = False
    #: Network-policy posture (overrides the default derived from ``m6``).
    netpol_mode: str | None = None

    def total(self) -> int:
        return (
            self.m1 + self.m2 + self.m3 + self.m4a + self.m4b + self.m4c
            + self.m5a + self.m5b + self.m5c + self.m5d + int(self.m6) + self.m7
            + int(self.global_collision)
        )

    def expected_counts(self) -> dict[str, int]:
        """Expected per-class finding counts (used by validation tests)."""
        return {
            "M1": self.m1,
            "M2": self.m2,
            "M3": self.m3,
            "M4A": self.m4a,
            "M4B": self.m4b,
            "M4C": self.m4c,
            "M4*": int(self.global_collision),
            "M5A": self.m5a,
            "M5B": self.m5b,
            "M5C": self.m5c,
            "M5D": self.m5d,
            "M6": int(self.m6),
            "M7": self.m7,
        }

    def validate(self) -> None:
        """Check internal consistency of the plan."""
        if self.m5b > self.m1:
            raise ValueError(
                f"plan requires m5b ({self.m5b}) <= m1 ({self.m1}): each M5B finding targets "
                "an open-but-undeclared port"
            )
        for name, value in self.expected_counts().items():
            if value < 0:
                raise ValueError(f"negative count for {name}")
