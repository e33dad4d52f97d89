"""Builders: injection plan -> AppSpec -> Helm chart + runtime behaviours.

The builder produces applications that are *clean by construction* except
for the misconfigurations the plan asks for, so that the evaluation pipeline
can be validated end to end: analyzing a built application must yield
exactly the planned findings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..cluster import BehaviorRegistry, ContainerBehavior, ListenSpec
from ..helm import Chart
from .spec import (
    AppSpec,
    ComponentSpec,
    InjectionPlan,
    NETPOL_DISABLED,
    NETPOL_DISABLED_LOOSE,
    NETPOL_ENABLED_ALLOW_ALL,
    NETPOL_ENABLED_MISMATCH,
    NETPOL_ENABLED_STRICT,
    NETPOL_NONE,
    NetworkPolicySpec,
    PortSpec,
    ServicePortSpec,
    ServiceSpec,
)

# Port ranges used by the injections (kept away from archetype base ports).
M1_PORT_BASE = 14001      # open but undeclared
M3_PORT_BASE = 15001      # declared but closed
M5A_PORT_BASE = 16001     # service target neither declared nor open
M5C_PORT_BASE = 17001     # headless service port unavailable
M4C_PORT = 8085           # shared port of subset-collision components
M4B_PORT = 8090           # port of the dual-service component
M5C_COMPONENT_PORT = 8086 # real port of the headless-service component
M7_PORT_BASE = 9100       # hostNetwork DaemonSet port

#: Pod label shared by every application participating in the M4* collision.
GLOBAL_COLLISION_LABELS = {"app": "global-metrics-agent"}

_SLUG_RE = re.compile(r"[^a-z0-9-]+")


def slugify(value: str) -> str:
    """Turn an organization or application name into a DNS-safe slug."""
    slug = _SLUG_RE.sub("-", value.lower()).strip("-")
    return slug or "app"


# ---------------------------------------------------------------------------
# Archetypes: the clean base structure of each application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Archetype:
    """The clean skeleton of an application category."""

    name: str
    components: tuple[tuple[str, str, int, int], ...]  # (name, kind, replicas, port)
    description: str = ""


ARCHETYPES: dict[str, Archetype] = {
    "web": Archetype(
        "web",
        (("server", "Deployment", 2, 8080),),
        "stateless web application behind a ClusterIP service",
    ),
    "database": Archetype(
        "database",
        (("primary", "StatefulSet", 1, 5432),),
        "single-primary database",
    ),
    "monitoring": Archetype(
        "monitoring",
        (("exporter", "Deployment", 1, 9090),),
        "metrics exporter / observability component",
    ),
    "messaging": Archetype(
        "messaging",
        (("broker", "StatefulSet", 3, 5672), ("dashboard", "Deployment", 1, 15672)),
        "message broker with a management dashboard",
    ),
    "pipeline": Archetype(
        "pipeline",
        (("controller", "Deployment", 1, 8443), ("worker", "Deployment", 2, 7077)),
        "controller/worker data or CI pipeline",
    ),
    "microservices": Archetype(
        "microservices",
        (
            ("frontend", "Deployment", 2, 8080),
            ("api", "Deployment", 2, 9000),
            ("cache", "StatefulSet", 1, 6379),
        ),
        "multi-service application",
    ),
}

#: Deterministic assignment of archetypes when the catalogue does not pin one.
ARCHETYPE_CYCLE = ("web", "database", "monitoring", "messaging", "pipeline", "microservices")


def default_labels(app_name: str, component: str, organization: str = "") -> dict[str, str]:
    """The unique-by-construction labels of one component.

    The organization slug is included as ``app.kubernetes.io/part-of`` so
    that two organizations shipping a chart with the same name do not create
    accidental cross-dataset label collisions in the synthetic catalogue
    (global collisions are injected explicitly via the M4* marker instead).
    """
    labels = {
        "app.kubernetes.io/name": app_name,
        "app.kubernetes.io/instance": app_name,
        "app.kubernetes.io/component": component,
    }
    if organization:
        labels["app.kubernetes.io/part-of"] = slugify(organization)
    return labels


# ---------------------------------------------------------------------------
# Plan -> AppSpec
# ---------------------------------------------------------------------------


def build_app_spec(
    name: str,
    organization: str,
    plan: InjectionPlan,
    archetype: str = "web",
    version: str = "1.0.0",
) -> AppSpec:
    """Construct an application exhibiting exactly the planned misconfigurations."""
    plan.validate()
    base = ARCHETYPES[archetype]
    app = AppSpec(
        name=name,
        organization=organization,
        version=version,
        archetype=archetype,
        description=base.description,
        global_collision_marker=plan.global_collision,
    )
    org_slug = slugify(organization)

    # Clean base components and their services.
    for component_name, kind, replicas, port in base.components:
        component = ComponentSpec(
            name=component_name,
            kind=kind,
            replicas=replicas,
            image=f"{org_slug}/{slugify(name)}-{component_name}",
            ports=[PortSpec(number=port, name="main")],
            labels=default_labels(name, component_name, organization),
        )
        app.components.append(component)
        app.services.append(
            ServiceSpec(
                name=f"{slugify(name)}-{component_name}",
                component=component_name,
                ports=[ServicePortSpec(port=port, target_port=port, name="main")],
            )
        )

    primary = app.components[0]
    primary_service = app.services[0]

    # M1: open, undeclared ports on the primary component.
    m1_ports = [M1_PORT_BASE + i for i in range(plan.m1)]
    for port in m1_ports:
        primary.ports.append(PortSpec(number=port, declared=False, opened=True))

    # M3: declared, never-opened ports on the primary component.
    for i in range(plan.m3):
        primary.ports.append(
            PortSpec(number=M3_PORT_BASE + i, name=f"opt-{i}", declared=True, opened=False)
        )

    # M2: dynamic ports, one component per finding.
    for i in range(plan.m2):
        if i == 0:
            primary.dynamic_ports += 1
        else:
            target = app.components[min(i, len(app.components) - 1)]
            if target.dynamic_ports:
                target = _add_aux_component(app, org_slug, f"coordinator-{i}", 7400 + i)
            target.dynamic_ports += 1

    # M4A: pairs of compute units with identical labels.
    for i in range(plan.m4a):
        shared = {
            "app.kubernetes.io/name": name,
            "app.kubernetes.io/instance": name,
            "app.kubernetes.io/part-of": org_slug,
            "collision-group": f"group-{i}",
        }
        for suffix in ("a", "b"):
            app.components.append(
                ComponentSpec(
                    name=f"agent-{i}-{suffix}",
                    kind="Deployment",
                    replicas=1,
                    image=f"{org_slug}/{slugify(name)}-agent-{i}-{suffix}",
                    ports=[],
                    labels=dict(shared),
                )
            )

    # M4B: components fronted by two services each.
    for i in range(plan.m4b):
        component = _add_aux_component(app, org_slug, f"gateway-{i}", M4B_PORT + i)
        for which in ("svc", "svc-internal"):
            app.services.append(
                ServiceSpec(
                    name=f"{slugify(name)}-{component.name}-{which}",
                    component=component.name,
                    ports=[ServicePortSpec(port=M4B_PORT + i, target_port=M4B_PORT + i, name="main")],
                )
            )

    # M4C: one service selecting two unrelated components via a shared subset label.
    for i in range(plan.m4c):
        subset = {
            "app.kubernetes.io/name": name,
            "app.kubernetes.io/part-of": org_slug,
            "tier": f"shared-{i}",
        }
        for suffix in ("alpha", "beta"):
            labels = default_labels(name, f"pool-{i}-{suffix}", organization)
            labels["tier"] = f"shared-{i}"
            app.components.append(
                ComponentSpec(
                    name=f"pool-{i}-{suffix}",
                    kind="Deployment",
                    replicas=1,
                    image=f"{org_slug}/{slugify(name)}-pool-{i}-{suffix}",
                    ports=[PortSpec(number=M4C_PORT, name="main")],
                    labels=labels,
                )
            )
        app.services.append(
            ServiceSpec(
                name=f"{slugify(name)}-pool-{i}",
                selector=subset,
                ports=[ServicePortSpec(port=M4C_PORT, target_port=M4C_PORT, name="main")],
            )
        )

    # M5A: the primary service also exposes a port whose target is dead.
    for i in range(plan.m5a):
        dead = M5A_PORT_BASE + i
        primary_service.ports.append(
            ServicePortSpec(port=dead, target_port=dead, name=f"dead-{i}")
        )

    # M5B: the primary service exposes a port targeting an open-but-undeclared port.
    for i in range(plan.m5b):
        hidden = m1_ports[i]
        primary_service.ports.append(
            ServicePortSpec(port=20000 + i, target_port=hidden, name=f"hidden-{i}")
        )

    # M5C: headless services whose single port is unavailable on their pods.
    for i in range(plan.m5c):
        component = _add_aux_component(app, org_slug, f"peers-{i}", M5C_COMPONENT_PORT + i,
                                       kind="StatefulSet")
        app.services.append(
            ServiceSpec(
                name=f"{slugify(name)}-{component.name}-headless",
                component=component.name,
                headless=True,
                ports=[ServicePortSpec(port=M5C_PORT_BASE + i, target_port=M5C_PORT_BASE + i,
                                       name="gossip")],
            )
        )

    # M5D: services whose selector matches nothing.
    for i in range(plan.m5d):
        app.services.append(
            ServiceSpec(
                name=f"{slugify(name)}-orphan-{i}",
                selector={"app.kubernetes.io/name": f"{name}-retired-{i}"},
                ports=[ServicePortSpec(port=8000 + i, target_port=8000 + i, name="main")],
            )
        )

    # M7: hostNetwork DaemonSets (node agents / exporters).
    for i in range(plan.m7):
        app.components.append(
            ComponentSpec(
                name=f"node-agent-{i}",
                kind="DaemonSet",
                replicas=1,
                image=f"{org_slug}/{slugify(name)}-node-agent-{i}",
                ports=[PortSpec(number=M7_PORT_BASE + i, name="metrics")],
                host_network=True,
                labels=default_labels(name, f"node-agent-{i}", organization),
            )
        )

    # M4*: the shared marker component (identical labels across applications).
    if plan.global_collision:
        app.components.append(
            ComponentSpec(
                name="global-metrics-agent",
                kind="Deployment",
                replicas=1,
                image="shared/global-metrics-agent",
                ports=[],
                labels=dict(GLOBAL_COLLISION_LABELS),
            )
        )

    # Network policy posture.
    app.network_policy = _network_policy_for(plan)
    return app


def _add_aux_component(
    app: AppSpec, org_slug: str, component_name: str, port: int, kind: str = "Deployment"
) -> ComponentSpec:
    component = ComponentSpec(
        name=component_name,
        kind=kind,
        replicas=1,
        image=f"{org_slug}/{slugify(app.name)}-{component_name}",
        ports=[PortSpec(number=port, name="main")],
        labels=default_labels(app.name, component_name, app.organization),
    )
    app.components.append(component)
    return component


def _network_policy_for(plan: InjectionPlan) -> NetworkPolicySpec:
    if plan.netpol_mode is not None:
        return NetworkPolicySpec(mode=plan.netpol_mode)
    if plan.m6:
        return NetworkPolicySpec(mode=NETPOL_NONE)
    return NetworkPolicySpec(mode=NETPOL_ENABLED_STRICT)


# ---------------------------------------------------------------------------
# AppSpec -> Helm chart
# ---------------------------------------------------------------------------

_HELPERS_TEMPLATE = """\
{{- define "app.name" -}}
{{ .Chart.Name }}
{{- end }}
{{- define "app.commonLabels" -}}
helm.sh/chart: {{ printf "%s-%s" .Chart.Name .Chart.Version }}
app.kubernetes.io/managed-by: {{ .Release.Service }}
app.kubernetes.io/part-of: {{ .Chart.Name }}
{{- end }}
"""

_COMPONENTS_TEMPLATE = """\
{{- range $name, $comp := .Values.components }}
---
apiVersion: {{ $comp.apiVersion }}
kind: {{ $comp.kind }}
metadata:
  name: {{ $.Release.Name }}-{{ $name }}
  namespace: {{ $.Release.Namespace }}
  labels:
    {{- toYaml $comp.labels | nindent 4 }}
    {{- include "app.commonLabels" $ | nindent 4 }}
spec:
  {{- if ne $comp.kind "DaemonSet" }}
  replicas: {{ $comp.replicas }}
  {{- end }}
  selector:
    matchLabels:
      {{- toYaml $comp.labels | nindent 6 }}
  template:
    metadata:
      labels:
        {{- toYaml $comp.labels | nindent 8 }}
    spec:
      {{- if $comp.hostNetwork }}
      hostNetwork: true
      {{- end }}
      containers:
        - name: {{ $name }}
          image: {{ $comp.image | quote }}
          {{- if $comp.ports }}
          ports:
            {{- range $comp.ports }}
            - containerPort: {{ .port }}
              {{- if .name }}
              name: {{ .name }}
              {{- end }}
              protocol: {{ .protocol | default "TCP" }}
            {{- end }}
          {{- end }}
{{- end }}
"""

_SERVICES_TEMPLATE = """\
{{- range $name, $svc := .Values.services }}
---
apiVersion: v1
kind: Service
metadata:
  name: {{ $.Release.Name }}-{{ $name }}
  namespace: {{ $.Release.Namespace }}
  labels:
    app.kubernetes.io/part-of: {{ $.Chart.Name }}
    {{- include "app.commonLabels" $ | nindent 4 }}
spec:
  type: ClusterIP
  {{- if $svc.headless }}
  clusterIP: None
  {{- end }}
  selector:
    {{- toYaml $svc.selector | nindent 4 }}
  ports:
    {{- range $svc.ports }}
    - name: {{ .name }}
      port: {{ .port }}
      targetPort: {{ .targetPort }}
      protocol: {{ .protocol | default "TCP" }}
    {{- end }}
{{- end }}
"""

_NETWORKPOLICY_TEMPLATE = """\
{{- if .Values.networkPolicy.enabled }}
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: {{ .Release.Name }}-ingress
  namespace: {{ .Release.Namespace }}
  labels:
    app.kubernetes.io/part-of: {{ .Chart.Name }}
spec:
  podSelector:
    {{- if .Values.networkPolicy.podSelector }}
    matchLabels:
      {{- toYaml .Values.networkPolicy.podSelector | nindent 6 }}
    {{- end }}
  policyTypes:
    - Ingress
  ingress:
    {{- if .Values.networkPolicy.allowedPorts }}
    - ports:
        {{- range .Values.networkPolicy.allowedPorts }}
        - port: {{ . }}
        {{- end }}
    {{- else }}
    - {}
    {{- end }}
{{- end }}
"""

#: Kubernetes apiVersion per workload kind.
_API_VERSIONS = {"Deployment": "apps/v1", "StatefulSet": "apps/v1", "DaemonSet": "apps/v1"}


def _component_values(app: AppSpec) -> dict:
    values: dict = {}
    for component in app.components:
        values[component.name] = {
            "apiVersion": _API_VERSIONS.get(component.kind, "apps/v1"),
            "kind": component.kind,
            "replicas": component.replicas,
            "image": component.image,
            "hostNetwork": component.host_network,
            "labels": component.labels or default_labels(app.name, component.name, app.organization),
            "ports": [
                {"port": port.number, "name": port.name, "protocol": port.protocol}
                for port in component.ports
                if port.declared
            ],
        }
    return values


def _service_values(app: AppSpec) -> dict:
    values: dict = {}
    for service in app.services:
        if service.selector is not None:
            selector = dict(service.selector)
        else:
            component = app.component(service.component)
            selector = dict(
                component.labels if component and component.labels
                else default_labels(app.name, service.component, app.organization)
            )
        values[service.name] = {
            "headless": service.headless,
            "selector": selector,
            "ports": [
                {
                    "name": port.name or f"port-{port.port}",
                    "port": port.port,
                    "targetPort": port.target_port if port.target_port is not None else port.port,
                    "protocol": port.protocol,
                }
                for port in service.ports
            ],
        }
    return values


def _network_policy_values(app: AppSpec) -> dict:
    policy = app.network_policy
    if policy.mode == NETPOL_NONE:
        return {"enabled": False, "defined": False, "allowedPorts": [], "podSelector": {}}
    allowed_ports: list[int] = []
    if policy.mode in (NETPOL_ENABLED_STRICT, NETPOL_DISABLED):
        allowed_ports = list(policy.allowed_ports) or sorted(
            {
                int(port.target_port)
                for service in app.services
                for port in service.ports
                if isinstance(port.target_port, int)
            }
        )
    pod_selector: dict[str, str] = {}
    if policy.mode == NETPOL_ENABLED_MISMATCH:
        pod_selector = {"app.kubernetes.io/name": f"{app.name}-legacy"}
    return {
        "enabled": policy.enabled_by_default,
        "defined": True,
        "allowedPorts": allowed_ports,
        "podSelector": pod_selector,
    }


def build_values(app: AppSpec) -> dict:
    """The chart's default values.yaml content (as a dictionary)."""
    return {
        "components": _component_values(app),
        "services": _service_values(app),
        "networkPolicy": _network_policy_values(app),
    }


def build_chart(app: AppSpec) -> Chart:
    """Build the Helm chart of a synthetic application."""
    templates = {
        "_helpers.tpl": _HELPERS_TEMPLATE,
        "components.yaml": _COMPONENTS_TEMPLATE,
        "services.yaml": _SERVICES_TEMPLATE,
    }
    if app.network_policy.defined:
        templates["networkpolicy.yaml"] = _NETWORKPOLICY_TEMPLATE
    return Chart.from_files(
        name=app.name,
        values=build_values(app),
        templates=templates,
        version=app.version,
        description=app.description or f"{app.archetype} application",
        organization=app.organization,
    )


def build_behaviors(app: AppSpec) -> BehaviorRegistry:
    """Register the runtime behaviour of every container image of the app."""
    registry = BehaviorRegistry()
    for component in app.components:
        ignore = {port.number for port in component.ports if port.declared and not port.opened}
        extra = [
            ListenSpec(port=port.number, protocol=port.protocol)
            for port in component.ports
            if port.opened and not port.declared
        ]
        extra.extend(ListenSpec(port=None) for _ in range(component.dynamic_ports))
        registry.register(
            component.image,
            ContainerBehavior(
                listen_on_declared=True,
                ignore_declared_ports=ignore,
                extra_listens=extra,
            ),
        )
    return registry


@dataclass
class BuiltApplication:
    """Everything the evaluation pipeline needs about one application."""

    spec: AppSpec
    plan: InjectionPlan
    chart: Chart
    behaviors: BehaviorRegistry
    dataset: str = ""
    use_case: str = ""  # sharing | internal | production
    #: Cached chart content fingerprint (charts are immutable once built).
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def fingerprint(self) -> str:
        """The chart's content fingerprint, hashed once and cached.

        Sweeps key the render cache and the delta classifier on this
        repeatedly; the cache pickles with the application, so pool workers
        read it too and a catalogue is hashed once per build.
        """
        if self._fingerprint is None:
            self._fingerprint = self.chart.fingerprint()
        return self._fingerprint

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def organization(self) -> str:
        return self.spec.organization

    @property
    def defines_network_policies(self) -> bool:
        return self.spec.network_policy.defined

    @property
    def network_policies_enabled_by_default(self) -> bool:
        return self.spec.network_policy.enabled_by_default


def build_application(
    name: str,
    organization: str,
    plan: InjectionPlan,
    archetype: str = "web",
    dataset: str = "",
    use_case: str = "",
    version: str = "1.0.0",
) -> BuiltApplication:
    """End-to-end helper: plan -> spec -> chart + behaviours."""
    spec = build_app_spec(name, organization, plan, archetype=archetype, version=version)
    application = BuiltApplication(
        spec=spec,
        plan=plan,
        chart=build_chart(spec),
        behaviors=build_behaviors(spec),
        dataset=dataset or organization,
        use_case=use_case,
    )
    # Hash the chart while its content is authoritative (it was just built):
    # every downstream consumer -- evaluation sweeps, render-cache keys, the
    # process-pool fan-out -- then reads the memo instead of re-hashing
    # inside its own timed/hot path.
    application.fingerprint()
    return application
