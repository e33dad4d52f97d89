"""Figure 4b: impact of network policies on endpoint reachability.

Methodology (Section 4.3.2): take every chart that *defines* network
policies, enable them if they are not active by default, re-deploy the
application into a clean cluster, and check which endpoints corresponding to
misconfigured ports remain reachable from an attacker-controlled pod in the
same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import (
    AnalysisSession,
    Cluster,
    ClusterError,
    OBSERVE_FULL,
    ReachabilityMatrix,
)
from ..datasets import BuiltApplication, build_catalog
from ..helm import render_chart
from ..probe import ReachabilityProbe


@dataclass
class ApplicationReachability:
    """Reachability outcome for one chart with its policies force-enabled."""

    application: str
    dataset: str
    defines_policies: bool
    uses_dynamic_ports: bool
    policies_enabled_by_default: bool = False
    reachable_misconfigured_pod_endpoints: int = 0
    reachable_dynamic_pod_endpoints: int = 0
    reachable_pods: set[str] = field(default_factory=set)
    reachable_pods_via_dynamic: set[str] = field(default_factory=set)
    reachable_misconfigured_services: set[str] = field(default_factory=set)

    @property
    def affected(self) -> bool:
        """Misconfigured endpoints remain reachable despite the policies."""
        return bool(self.reachable_pods or self.reachable_misconfigured_services)


@dataclass
class DatasetReachabilityRow:
    """One row of Figure 4b."""

    dataset: str
    policies_defined: int = 0
    policies_enabled_by_default: int = 0
    affected: int = 0
    reachable_pods: int = 0
    reachable_pods_dynamic: int = 0
    reachable_services: int = 0

    def cells(self) -> list[str]:
        return [
            self.dataset,
            f"{self.policies_defined} ({self.policies_enabled_by_default})",
            str(self.affected),
            f"{self.reachable_pods} ({self.reachable_pods_dynamic})",
            str(self.reachable_services),
        ]


@dataclass
class NetpolImpactResult:
    """The full Figure 4b table."""

    applications: list[ApplicationReachability] = field(default_factory=list)

    def rows(self) -> list[DatasetReachabilityRow]:
        rows: dict[str, DatasetReachabilityRow] = {}
        for entry in self.applications:
            row = rows.setdefault(entry.dataset, DatasetReachabilityRow(dataset=entry.dataset))
            if not entry.defines_policies:
                continue
            row.policies_defined += 1
            if entry.policies_enabled_by_default:
                row.policies_enabled_by_default += 1
            if entry.affected:
                row.affected += 1
            row.reachable_pods += len(entry.reachable_pods)
            row.reachable_pods_dynamic += len(entry.reachable_pods_via_dynamic)
            row.reachable_services += len(entry.reachable_misconfigured_services)
        return [rows[dataset] for dataset in sorted(rows)]

    def format_text(self) -> str:
        header = ["Dataset", "Policies defined (enabled)", "Affected", "Reachable pods (dynamic)",
                  "Reachable services"]
        rows = [row.cells() for row in self.rows() if row.policies_defined]
        widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(header))]
        lines.extend(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        )
        return "\n".join(lines)


#: Shared sessions for the sweep, one per ``compiled`` flag: the sweep
#: recycles a single cluster skeleton across every chart it probes instead
#: of rebuilding one per chart.
_SESSIONS: dict[bool, AnalysisSession] = {}


def _shared_session(compiled: bool) -> AnalysisSession:
    session = _SESSIONS.get(compiled)
    if session is None:
        session = AnalysisSession(
            name="netpol-impact",
            observe_mode=OBSERVE_FULL,
            compiled_policies=compiled,
        )
        _SESSIONS[compiled] = session
    return session


def probe_application_with_policies(
    app: BuiltApplication, compiled: bool = True, pooled: bool = True
) -> ApplicationReachability:
    """Force-enable the chart's policies, deploy it, and probe reachability.

    ``compiled=False`` pins the cluster to the naive policy evaluator -- the
    pre-compilation reference path kept for benchmarks.  The cluster comes
    from a process-wide pooled session, recycled via ``Cluster.reset()``
    between charts; ``pooled=False`` rebuilds a throw-away cluster per
    chart, the seed reference behaviour the conformance suite diffs
    against.
    """
    outcome = ApplicationReachability(
        application=app.name,
        dataset=app.dataset,
        defines_policies=app.defines_network_policies,
        uses_dynamic_ports=any(c.dynamic_ports for c in app.spec.components),
        policies_enabled_by_default=app.network_policies_enabled_by_default,
    )
    if not app.defines_network_policies:
        return outcome
    rendered = render_chart(
        app.chart,
        overrides={"networkPolicy": {"enabled": True}},
        fingerprint=app.fingerprint(),
    )
    try:
        if pooled:
            with _shared_session(compiled).lease(app.behaviors) as cluster:
                _probe_installed(cluster, app, rendered, outcome)
        else:
            cluster = Cluster(
                name="netpol-impact", behaviors=app.behaviors, compiled_policies=compiled
            )
            _probe_installed(cluster, app, rendered, outcome)
    except ClusterError as exc:
        # Attribute the error to the chart before it propagates: sweep-level
        # callers (and the CLI) then print one actionable line instead of a
        # context-free traceback.
        raise exc.with_context(f"{app.dataset}/{app.name}")
    return outcome


def _probe_installed(cluster, app, rendered, outcome) -> None:
    """Install ``rendered`` into ``cluster`` and fill in ``outcome``."""
    cluster.install(rendered)
    probe = ReachabilityProbe(cluster)
    attacker = probe.ensure_attacker()
    app_pods = cluster.running_pods(app_name=app.name)
    bindings = cluster.service_bindings()
    host_baseline = cluster.host_port_baseline()
    # One compiled index + decision cache for the whole probe run: replicas
    # and repeated ports resolve from the matrix memo instead of re-scanning
    # the policy list per connection attempt.  Built on the first attempt --
    # about a third of the catalogue's policy-bearing charts expose no
    # misconfigured endpoint at all and never need policy machinery.
    matrix: ReachabilityMatrix | None = None

    def attempt_matrix() -> ReachabilityMatrix:
        nonlocal matrix
        if matrix is None:
            matrix = cluster.network.reachability_matrix(
                cluster.policies_view(), app_pods, bindings
            )
        return matrix
    for pod in app_pods:
        declared = pod.declared_ports("TCP") | pod.declared_ports("UDP")
        for socket in pod.sockets:
            if not socket.reachable_from_network:
                continue
            misconfigured = (
                socket.dynamic
                or socket.port not in declared
                or pod.host_network
            )
            if pod.host_network and socket.port in host_baseline:
                # The node's own services are not part of the application.
                continue
            if not misconfigured:
                continue
            attempt = attempt_matrix().connect(
                attacker, pod, socket.port, socket.protocol
            )
            if attempt.success:
                outcome.reachable_misconfigured_pod_endpoints += 1
                outcome.reachable_pods.add(pod.name)
                if socket.dynamic:
                    outcome.reachable_dynamic_pod_endpoints += 1
                    outcome.reachable_pods_via_dynamic.add(pod.name)
    for binding in bindings:
        if not any(backend.app == app.name for backend in binding.backends):
            continue
        for service_port in binding.service.ports:
            target = service_port.resolved_target()
            targets_misconfigured = False
            for backend in binding.backends:
                resolved = (
                    target if isinstance(target, int) else backend.named_ports().get(str(target))
                )
                if resolved is None:
                    continue
                if resolved not in backend.declared_ports("TCP"):
                    targets_misconfigured = True
            if not targets_misconfigured:
                continue
            attempt = attempt_matrix().connect_via_service(
                attacker, binding, service_port.port, service_port.protocol
            )
            if attempt.success:
                outcome.reachable_misconfigured_services.add(binding.service.name)


def run_netpol_impact(
    applications: list[BuiltApplication] | None = None,
    compiled: bool = True,
    pooled: bool = True,
) -> NetpolImpactResult:
    """Run the Figure 4b experiment over the catalogue.

    Every chart is probed in its own cluster, in catalogue order.  The sweep
    recycles one pooled cluster skeleton across its charts (``pooled=False``
    restores the throw-away-cluster-per-chart reference behaviour).
    ``compiled=False`` runs the whole sweep on the naive reference
    evaluator (benchmark baseline).
    """
    applications = applications if applications is not None else build_catalog()
    return NetpolImpactResult(
        applications=[
            probe_application_with_policies(app, compiled=compiled, pooled=pooled)
            for app in applications
        ]
    )
