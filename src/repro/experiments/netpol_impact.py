"""Figure 4b: impact of network policies on endpoint reachability.

Methodology (Section 4.3.2): take every chart that *defines* network
policies, enable them if they are not active by default, re-deploy the
application into a clean cluster, and check which endpoints corresponding to
misconfigured ports remain reachable from an attacker-controlled pod in the
same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import AnalysisSession, Cluster, ClusterError, ReachabilityMatrix
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
        """The row's cells as printed, counts with their enabled or dynamic part."""
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
        """One row per dataset, sorted by name; only policy-defining charts add to it."""
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
        """The Figure 4b table as ``insidejob figure4b`` prints it."""
        header = ["Dataset", "Policies defined (enabled)", "Affected", "Reachable pods (dynamic)",
                  "Reachable services"]
        rows = [row.cells() for row in self.rows() if row.policies_defined]
        widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(header))]
        lines.extend(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        )
        return "\n".join(lines)


#: The session every compiled probe deploys on: one substrate (nodes,
#: scheduler, runtime) recycled from chart to chart.
_SESSION = AnalysisSession(name="netpol-impact")


def probe_application_with_policies(
    app: BuiltApplication, compiled: bool = True
) -> ApplicationReachability:
    """Force-enable the chart's policies, deploy it, and probe reachability.

    The chart and the attacker pod start install-free on a pooled
    observation substrate (:meth:`~repro.cluster.AnalysisSession.deploy`)
    and are probed through the compiled policy index.  ``compiled=False``
    is the reference: a fresh ``Cluster(compiled_policies=False)`` per
    chart, installed, with the naive policy scan.  A :class:`ClusterError`
    leaves prefixed with the chart's ``dataset/name``.
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
        if compiled:
            with _SESSION.deploy(rendered, app.behaviors) as deployment:
                _probe_reach(deployment, app, outcome)
        else:
            cluster = Cluster(
                name="netpol-impact", behaviors=app.behaviors, compiled_policies=False
            )
            cluster.install(rendered)
            _probe_reach(cluster, app, outcome)
    except ClusterError as exc:
        # Attribute the error to the chart before it propagates: sweep-level
        # callers (and the CLI) then print one actionable line instead of a
        # context-free traceback.
        raise exc.with_context(f"{app.dataset}/{app.name}")
    return outcome


def _probe_reach(deployment, app, outcome) -> None:
    """Probe the deployed chart from the attacker and fill in ``outcome``.

    ``deployment`` is a :class:`~repro.cluster.SubstrateDeployment` or a
    ``Cluster`` the chart is installed in (the attacker joins on first use).
    """
    probe = ReachabilityProbe(deployment)
    attacker = probe.ensure_attacker()
    app_pods = deployment.running_pods(app_name=app.name)
    bindings = deployment.service_bindings()
    host_baseline = deployment.host_port_baseline()
    # One compiled index + decision cache for the whole probe run: replicas
    # and repeated ports resolve from the matrix memo instead of re-scanning
    # the policy list per connection attempt.  Built on the first attempt --
    # about a third of the catalogue's policy-bearing charts expose no
    # misconfigured endpoint at all and never need policy machinery.
    matrix: ReachabilityMatrix | None = None

    def attempt_matrix() -> ReachabilityMatrix:
        nonlocal matrix
        if matrix is None:
            matrix = deployment.network.reachability_matrix(
                deployment.policies_view(), app_pods, bindings
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
            target_port = service_port.resolved_target()
            targets_misconfigured = False
            for backend in binding.backends:
                resolved = (
                    target_port
                    if isinstance(target_port, int)
                    else backend.named_ports().get(str(target_port))
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
) -> NetpolImpactResult:
    """Run the Figure 4b experiment over the catalogue.

    Every chart is probed on its own, in catalogue order, through
    :func:`probe_application_with_policies`: install-free on one pooled
    substrate by default, or with ``compiled=False`` installed into a fresh
    naive-policy cluster per chart (the reference the default is proven
    equal to, and the benchmarks' baseline).
    """
    applications = applications if applications is not None else build_catalog()
    return NetpolImpactResult(
        applications=[
            probe_application_with_policies(app, compiled=compiled)
            for app in applications
        ]
    )
