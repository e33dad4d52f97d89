"""The synthetic catalogue of the six organizations evaluated in the paper.

The real evaluation analyzed 287 open-source Helm charts from Banzai Cloud,
Bitnami, CNCF, the European Environment Agency, Prometheus Community and
Wikimedia (Section 4.1).  Those repositories are not available offline, so
this module builds an equivalent synthetic catalogue: the same number of
applications per organization, with misconfigurations injected so that the
per-dataset totals reproduce Table 2 and the most-misconfigured applications
mirror Figure 3.

The catalogue is fully deterministic: the same seed always yields the same
290 charts (the Table 2 row sum; see ``TABLE2_ROW_SUM_APPLICATIONS``), so
experiments are reproducible run to run.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field

from .builder import ARCHETYPE_CYCLE, BuiltApplication, build_application
from .spec import (
    InjectionPlan,
    NETPOL_DISABLED,
    NETPOL_DISABLED_LOOSE,
    NETPOL_ENABLED_ALLOW_ALL,
    NETPOL_ENABLED_STRICT,
    NETPOL_NONE,
)

#: Use-case grouping of Section 4.1.1.
USE_CASE_SHARING = "sharing"
USE_CASE_INTERNAL = "internal"
USE_CASE_PRODUCTION = "production"


@dataclass
class DatasetTargets:
    """Per-dataset misconfiguration totals (one row of Table 2)."""

    total_apps: int
    affected_apps: int
    m1: int = 0
    m2: int = 0
    m3: int = 0
    m4a: int = 0
    m4b: int = 0
    m4c: int = 0
    m4_global: int = 0
    m5a: int = 0
    m5b: int = 0
    m5c: int = 0
    m5d: int = 0
    m6: int = 0
    m7: int = 0

    def total_misconfigurations(self) -> int:
        return (
            self.m1 + self.m2 + self.m3 + self.m4a + self.m4b + self.m4c + self.m4_global
            + self.m5a + self.m5b + self.m5c + self.m5d + self.m6 + self.m7
        )


@dataclass
class NotableApp:
    """A hand-specified application mirroring Figure 3's top charts."""

    name: str
    version: str
    archetype: str
    plan: InjectionPlan


@dataclass
class DatasetDefinition:
    """Everything needed to generate one organization's synthetic charts."""

    name: str
    organization: str
    use_case: str
    targets: DatasetTargets
    name_pool: list[str]
    notable: list[NotableApp] = field(default_factory=list)
    #: Network-policy posture parameters (drives M6 and Figure 4b).
    disabled_strict_policies: int = 0
    disabled_loose_policies: int = 0
    enabled_loose_policies: int = 0


# ---------------------------------------------------------------------------
# Table 2 targets
# ---------------------------------------------------------------------------

TABLE2_TARGETS: dict[str, DatasetTargets] = {
    "Banzai Cloud": DatasetTargets(
        total_apps=51, affected_apps=51,
        m1=13, m2=2, m3=17, m4a=8, m4b=4, m5b=2, m6=51,
    ),
    "Bitnami": DatasetTargets(
        total_apps=158, affected_apps=158,
        m1=106, m2=26, m3=40, m4a=25, m4b=10, m4_global=5, m5a=2, m5b=14, m5c=3, m6=156, m7=7,
    ),
    "CNCF": DatasetTargets(
        total_apps=10, affected_apps=7,
        m1=10, m3=4, m5a=6, m6=7,
    ),
    "EEA": DatasetTargets(
        total_apps=19, affected_apps=8,
        m1=7, m3=1, m4b=1,
    ),
    "Prometheus C.": DatasetTargets(
        total_apps=25, affected_apps=25,
        m1=42, m2=4, m3=3, m5a=1, m5b=4, m6=25, m7=4,
    ),
    "Wikimedia": DatasetTargets(
        total_apps=27, affected_apps=10,
        m1=10, m2=3, m3=2, m4a=2, m4b=1, m4c=1, m5a=2, m5b=1, m6=2,
    ),
}

#: Paper-reported grand totals, used by validation tests.
TABLE2_TOTAL_MISCONFIGURATIONS = 634
#: The paper's abstract and Section 4.1 report 287 applications, but the
#: per-dataset rows of Table 2 sum to 290 (51+158+10+19+25+27).  We reproduce
#: the table rows, so the catalogue contains 290 applications; both constants
#: are kept for transparency.
TABLE2_TOTAL_APPLICATIONS = 287
TABLE2_ROW_SUM_APPLICATIONS = 290
TABLE2_AFFECTED_APPLICATIONS = 259


# ---------------------------------------------------------------------------
# Name pools (plausible chart names per organization)
# ---------------------------------------------------------------------------

_BITNAMI_POOL = [
    "airflow", "apache", "appsmith", "argo-cd", "aspnet-core", "cassandra", "cert-manager",
    "concourse", "consul", "contour", "discourse", "dokuwiki", "drupal", "ejbca",
    "elasticsearch", "etcd", "external-dns", "fluent-bit", "fluentd", "ghost", "gitea",
    "grafana", "grafana-loki", "grafana-mimir", "haproxy", "harbor", "influxdb",
    "jasperreports", "jenkins", "joomla", "jupyterhub", "kafka", "keycloak", "kibana",
    "kong", "kubeapps", "kubernetes-event-exporter", "matomo", "mariadb", "mariadb-galera",
    "mastodon", "mediawiki", "memcached", "milvus", "minio", "mongodb", "mongodb-sharded",
    "moodle", "multus-cni", "mysql", "nats", "neo4j", "nginx", "nginx-ingress-controller",
    "node-red", "odoo", "opencart", "opensearch", "owncloud", "parse", "phpbb", "phpmyadmin",
    "postgresql", "postgresql-ha", "prestashop", "pytorch", "rabbitmq",
    "rabbitmq-cluster-operator", "redis", "redis-cluster", "redmine", "schema-registry",
    "sealed-secrets", "solr", "sonarqube", "spark", "spring-cloud-dataflow", "suitecrm",
    "supabase", "tensorflow-resnet", "thanos", "tomcat", "valkey", "vault", "whereabouts",
    "wildfly", "wordpress", "zipkin", "zookeeper",
]

_BANZAI_POOL = [
    "anchore-policy-validator", "cadence", "cluster-autoscaler", "dex", "espejo",
    "etcd-operator", "hpa-operator", "imagepullsecrets", "istio", "kafka-operator",
    "logging-operator", "logging-operator-logging", "pipeline", "prometheus-operator",
    "spot-config-webhook", "supertubes", "thanos", "vault-operator", "vault-secrets-webhook",
    "zeppelin", "zookeeper-operator", "allspark", "banzai-dashboard", "backup-operator",
    "telescopes", "cloudinfo", "dast-operator", "instance-termination-handler",
    "kafka-minion", "koperator", "log-socket", "nodepool-labels-operator", "pke-installer",
    "pvc-operator", "scale-operator", "security-scanner", "spark-history-server",
    "spark-resource-staging-server", "spark-shuffle-service", "tidb-operator",
    "vault-dynamic-secrets", "wildfly-operator", "mysql-operator", "nats-operator",
    "object-store-operator", "ingress-operator", "canary-operator",
]

_CNCF_POOL = [
    "cert-manager", "coredns", "envoy-gateway", "fluentd", "harbor", "jaeger-operator",
    "linkerd-control-plane", "nats", "opentelemetry-collector", "thanos",
]

_EEA_POOL = [
    "plone", "volto", "eea-website", "data-api", "geonetwork", "zope", "postgres-backup",
    "varnish", "rabbitmq-broker", "redis-cache", "elastic-search", "logstash", "kibana-dash",
    "matomo-analytics", "sdi-catalog", "land-copernicus", "forests-dashboard",
    "climate-adapt", "nessus-scanner",
]

_PROMETHEUS_POOL = [
    "alertmanager", "prometheus-adapter", "prometheus-blackbox-exporter",
    "prometheus-cloudwatch-exporter", "prometheus-consul-exporter",
    "prometheus-couchdb-exporter", "prometheus-elasticsearch-exporter",
    "prometheus-json-exporter", "prometheus-kafka-exporter", "prometheus-memcached-exporter",
    "prometheus-mongodb-exporter", "prometheus-mysql-exporter", "prometheus-nginx-exporter",
    "prometheus-pingdom-exporter", "prometheus-postgres-exporter", "prometheus-pushgateway",
    "prometheus-rabbitmq-exporter", "prometheus-redis-exporter", "prometheus-snmp-exporter",
    "prometheus-statsd-exporter", "prometheus-windows-exporter",
]

_WIKIMEDIA_POOL = [
    "mediawiki", "ipoid", "eventgate", "citoid", "cxserver", "echostore", "kartotherian",
    "linkrecommendation", "mathoid", "mobileapps", "proton", "push-notifications",
    "recommendation-api", "restrouter", "sessionstore", "shellbox", "termbox", "wikifeeds",
    "zotero", "blubberoid", "changeprop", "chromium-render", "eventstreams",
    "image-suggestion", "maps-vector-server", "mw-content-enrich", "toolhub",
]


# ---------------------------------------------------------------------------
# Notable applications (Figure 3)
# ---------------------------------------------------------------------------

_BITNAMI_NOTABLE = [
    NotableApp("kube-prometheus", "8.15.3", "monitoring",
               InjectionPlan(m1=10, m2=1, m3=2, m4a=1, m5b=1, m6=True, m7=1)),
    NotableApp("kube-prometheus-aks", "8.1.11", "monitoring",
               InjectionPlan(m1=9, m2=1, m3=2, m4a=1, m5b=1, m6=True, m7=1)),
    NotableApp("jaeger", "1.2.7", "pipeline",
               InjectionPlan(m1=7, m2=1, m3=1, m6=True)),
    NotableApp("metallb", "4.5.6", "web",
               InjectionPlan(m1=6, m2=1, m6=True, m7=1)),
    NotableApp("metallb-aks", "2.0.3", "web",
               InjectionPlan(m1=5, m2=1, m6=True, m7=1)),
    NotableApp("pinniped-aks", "0.4.5", "microservices",
               InjectionPlan(m1=4, m2=1, m3=2, m4a=1, m6=True)),
    NotableApp("clickhouse", "3.5.5", "database",
               InjectionPlan(m1=3, m2=1, m3=2, m4a=1, m4b=1, m6=True)),
    NotableApp("clickhouse-aks", "1.0.3", "database",
               InjectionPlan(m1=3, m2=1, m3=1, m4a=1, m5b=1, m6=True)),
    NotableApp("zookeeper-aks", "10.2.4", "database",
               InjectionPlan(m1=2, m2=1, m3=1, m4a=1, m5a=1, m6=True)),
    NotableApp("grafana-tempo-aks", "1.4.5", "pipeline",
               InjectionPlan(m1=2, m2=1, m3=1, m4a=1, m5c=1, m6=True)),
]

_PROMETHEUS_NOTABLE = [
    NotableApp("kube-prometheus-stack", "48.4.0", "monitoring",
               InjectionPlan(m1=12, m2=1, m3=1, m5b=2, m6=True, m7=2)),
    NotableApp("prometheus", "23.4.0", "monitoring",
               InjectionPlan(m1=8, m2=1, m6=True, m7=1)),
    NotableApp("prometheus-node-exporter", "4.22.0", "monitoring",
               InjectionPlan(m1=6, m6=True, m7=1)),
    NotableApp("prometheus-smartctl-exporter", "0.5.0", "monitoring",
               InjectionPlan(m1=6, m2=1, m6=True)),
]

_BANZAI_NOTABLE = [
    NotableApp("istio-operator", "2.1.4", "pipeline",
               InjectionPlan(m1=2, m2=1, m3=3, m4a=1, m4b=1, m6=True)),
    NotableApp("istio-operator-stable", "2.1.4", "pipeline",
               InjectionPlan(m1=2, m2=1, m3=3, m4a=1, m5b=1, m6=True)),
]


# ---------------------------------------------------------------------------
# Dataset definitions
# ---------------------------------------------------------------------------

DATASETS: dict[str, DatasetDefinition] = {
    "Banzai Cloud": DatasetDefinition(
        name="Banzai Cloud",
        organization="Banzai Cloud",
        use_case=USE_CASE_SHARING,
        targets=TABLE2_TARGETS["Banzai Cloud"],
        name_pool=_BANZAI_POOL,
        notable=_BANZAI_NOTABLE,
    ),
    "Bitnami": DatasetDefinition(
        name="Bitnami",
        organization="Bitnami",
        use_case=USE_CASE_SHARING,
        targets=TABLE2_TARGETS["Bitnami"],
        name_pool=_BITNAMI_POOL,
        notable=_BITNAMI_NOTABLE,
        disabled_strict_policies=43,
        disabled_loose_policies=3,
    ),
    "CNCF": DatasetDefinition(
        name="CNCF",
        organization="CNCF",
        use_case=USE_CASE_PRODUCTION,
        targets=TABLE2_TARGETS["CNCF"],
        name_pool=_CNCF_POOL,
        disabled_strict_policies=1,
    ),
    "EEA": DatasetDefinition(
        name="EEA",
        organization="European Environment Agency",
        use_case=USE_CASE_INTERNAL,
        targets=TABLE2_TARGETS["EEA"],
        name_pool=_EEA_POOL,
        enabled_loose_policies=8,
    ),
    "Prometheus C.": DatasetDefinition(
        name="Prometheus C.",
        organization="Prometheus Community",
        use_case=USE_CASE_PRODUCTION,
        targets=TABLE2_TARGETS["Prometheus C."],
        name_pool=_PROMETHEUS_POOL,
        notable=_PROMETHEUS_NOTABLE,
        disabled_strict_policies=2,
        disabled_loose_policies=3,
    ),
    "Wikimedia": DatasetDefinition(
        name="Wikimedia",
        organization="Wikimedia",
        use_case=USE_CASE_INTERNAL,
        targets=TABLE2_TARGETS["Wikimedia"],
        name_pool=_WIKIMEDIA_POOL,
        enabled_loose_policies=4,
    ),
}

DATASET_ORDER = ("Banzai Cloud", "Bitnami", "CNCF", "EEA", "Prometheus C.", "Wikimedia")


# ---------------------------------------------------------------------------
# Plan distribution
# ---------------------------------------------------------------------------


class CatalogError(Exception):
    """Raised when a dataset definition cannot realize its targets."""


@dataclass
class PlannedApp:
    """An application name with its injection plan, before chart building."""

    name: str
    version: str
    archetype: str
    plan: InjectionPlan


def _app_names(definition: DatasetDefinition) -> list[str]:
    """Generate the generic application names for a dataset.

    Names come from the organization's pool; when the pool is smaller than
    the dataset, ``-aks`` (alternative distribution) variants are appended,
    mirroring how the paper counts the Bitnami and Bitnami-AKS charts as
    separate applications.  Names never repeat within a dataset.
    """
    needed = definition.targets.total_apps - len(definition.notable)
    taken = {notable.name for notable in definition.notable}
    names: list[str] = []
    for name in definition.name_pool:
        if name not in taken:
            names.append(name)
            taken.add(name)
    index = 0
    suffix_round = 1
    while len(names) < needed:
        base = definition.name_pool[index % len(definition.name_pool)]
        suffix = "-aks" if suffix_round == 1 else f"-v{suffix_round}"
        candidate = f"{base}{suffix}"
        index += 1
        if index % len(definition.name_pool) == 0:
            suffix_round += 1
        if candidate in taken:
            continue
        names.append(candidate)
        taken.add(candidate)
    return names[:needed]


def plan_dataset(definition: DatasetDefinition) -> list[PlannedApp]:
    """Distribute the dataset's Table 2 targets across its applications."""
    targets = definition.targets
    planned: list[PlannedApp] = []
    for notable in definition.notable:
        planned.append(
            PlannedApp(notable.name, notable.version, notable.archetype, copy.deepcopy(notable.plan))
        )
    for index, name in enumerate(_app_names(definition)):
        archetype = ARCHETYPE_CYCLE[index % len(ARCHETYPE_CYCLE)]
        planned.append(PlannedApp(name, "1.0.0", archetype, InjectionPlan()))

    if len(planned) != targets.total_apps:
        raise CatalogError(
            f"{definition.name}: generated {len(planned)} apps, expected {targets.total_apps}"
        )

    affected = planned[: targets.affected_apps]

    # --- M6 -----------------------------------------------------------------
    remaining_m6 = targets.m6 - sum(1 for app in planned if app.plan.m6)
    if remaining_m6 < 0:
        raise CatalogError(f"{definition.name}: notable apps exceed the M6 target")
    for app in affected:
        if remaining_m6 <= 0:
            break
        if not app.plan.m6:
            app.plan.m6 = True
            remaining_m6 -= 1
    if remaining_m6:
        raise CatalogError(f"{definition.name}: could not place {remaining_m6} M6 findings")

    # --- Count-based classes ---------------------------------------------------
    def assign(attribute: str, remaining: int, eligible=None) -> None:
        if remaining < 0:
            raise CatalogError(f"{definition.name}: notable apps exceed the {attribute} target")
        # Each finding goes to the least-loaded eligible app, the earliest
        # one on ties.  A finding raises only its own app's total, and
        # eligibility depends only on the app's own plan, so a heap keyed
        # (total, position) stays exact without rescanning the dataset.
        heap = [
            (app.plan.total(), position)
            for position, app in enumerate(affected)
            if eligible is None or eligible(app)
        ]
        heapq.heapify(heap)
        while remaining > 0:
            if not heap:
                raise CatalogError(
                    f"{definition.name}: no eligible application left for {attribute}"
                )
            total, position = heapq.heappop(heap)
            app = affected[position]
            setattr(app.plan, attribute, getattr(app.plan, attribute) + 1)
            remaining -= 1
            if eligible is None or eligible(app):
                heapq.heappush(heap, (total + 1, position))

    consumed = {
        "m1": sum(app.plan.m1 for app in planned),
        "m2": sum(app.plan.m2 for app in planned),
        "m3": sum(app.plan.m3 for app in planned),
        "m4a": sum(app.plan.m4a for app in planned),
        "m4b": sum(app.plan.m4b for app in planned),
        "m4c": sum(app.plan.m4c for app in planned),
        "m5a": sum(app.plan.m5a for app in planned),
        "m5b": sum(app.plan.m5b for app in planned),
        "m5c": sum(app.plan.m5c for app in planned),
        "m5d": sum(app.plan.m5d for app in planned),
        "m7": sum(app.plan.m7 for app in planned),
    }
    assign("m1", targets.m1 - consumed["m1"])
    assign("m3", targets.m3 - consumed["m3"])
    assign("m2", targets.m2 - consumed["m2"])
    assign("m4a", targets.m4a - consumed["m4a"])
    assign("m4b", targets.m4b - consumed["m4b"])
    assign("m4c", targets.m4c - consumed["m4c"])
    assign("m5a", targets.m5a - consumed["m5a"])
    assign("m5c", targets.m5c - consumed["m5c"])
    assign("m5d", targets.m5d - consumed["m5d"])
    assign("m7", targets.m7 - consumed["m7"])
    assign("m5b", targets.m5b - consumed["m5b"], eligible=lambda app: app.plan.m5b < app.plan.m1)

    # --- Global collision markers (M4*) ---------------------------------------------
    remaining_global = targets.m4_global
    for app in affected:
        if remaining_global <= 0:
            break
        app.plan.global_collision = True
        remaining_global -= 1
    if remaining_global:
        raise CatalogError(f"{definition.name}: could not place all M4* markers")

    # --- Sanity: every affected app has at least one finding, clean apps none ---------
    for app in affected:
        if app.plan.total() == 0:
            raise CatalogError(f"{definition.name}/{app.name}: affected app has no findings")
    for app in planned[targets.affected_apps:]:
        if app.plan.total() != 0:
            raise CatalogError(f"{definition.name}/{app.name}: clean app received findings")

    _assign_network_policies(definition, planned)
    return planned


def _assign_network_policies(definition: DatasetDefinition, planned: list[PlannedApp]) -> None:
    """Assign the network-policy posture of every application.

    Applications with M6 ship either no policy or a policy disabled by
    default; applications without M6 ship an enabled policy.  The number of
    loose (ineffective) policies drives the Figure 4b "affected" column.
    """
    m6_apps = [app for app in planned if app.plan.m6]
    non_m6_apps = [app for app in planned if not app.plan.m6]

    disabled_loose = definition.disabled_loose_policies
    disabled_strict = definition.disabled_strict_policies
    # Loose policies go to applications that actually expose misconfigured
    # open ports, so that force-enabling them still leaves endpoints reachable
    # (these become the "affected" rows of Figure 4b).  Strict policies are
    # assigned preferentially to applications whose misconfigurations a strict
    # policy *does* remedy (no hostNetwork escape, no service pointing at an
    # undeclared port), mirroring the paper's observation that only a handful
    # of policy-shipping charts remain affected.
    # ``sorted`` is stable, so ties keep catalogue order.
    for app in sorted(m6_apps, key=lambda a: -(a.plan.m1 + a.plan.m2)):
        if disabled_loose > 0:
            app.plan.netpol_mode = NETPOL_DISABLED_LOOSE
            disabled_loose -= 1
        else:
            app.plan.netpol_mode = NETPOL_NONE
    strict_candidates = sorted(
        (app for app in m6_apps if app.plan.netpol_mode == NETPOL_NONE),
        key=lambda a: (a.plan.m5b + a.plan.m7, a.plan.m2),
    )
    for app in strict_candidates:
        if disabled_strict <= 0:
            break
        app.plan.netpol_mode = NETPOL_DISABLED
        disabled_strict -= 1

    enabled_loose = definition.enabled_loose_policies
    for app in sorted(non_m6_apps, key=lambda a: -(a.plan.m1 + a.plan.m2)):
        if enabled_loose > 0 and app.plan.total() > 0:
            app.plan.netpol_mode = NETPOL_ENABLED_ALLOW_ALL
            enabled_loose -= 1
        else:
            app.plan.netpol_mode = NETPOL_ENABLED_STRICT


# ---------------------------------------------------------------------------
# Catalogue construction
# ---------------------------------------------------------------------------


def build_dataset(dataset: str) -> list[BuiltApplication]:
    """Build every application (chart + behaviours) of one dataset."""
    definition = DATASETS[dataset]
    applications: list[BuiltApplication] = []
    for planned in plan_dataset(definition):
        applications.append(
            build_application(
                name=planned.name,
                organization=definition.organization,
                plan=planned.plan,
                archetype=planned.archetype,
                dataset=definition.name,
                use_case=definition.use_case,
                version=planned.version,
            )
        )
    return applications


def build_catalog(datasets: tuple[str, ...] = DATASET_ORDER) -> list[BuiltApplication]:
    """Build the full catalogue: 290 applications, the Table 2 row sum.

    The paper reports 287; see the ``TABLE2_ROW_SUM_APPLICATIONS`` note.

    The catalogue is deterministic, so content fingerprints -- and therefore
    shared render-cache entries -- are stable across rebuilds: a catalogue
    built twice in one process renders each chart at most once.
    """
    applications: list[BuiltApplication] = []
    for dataset in datasets:
        applications.extend(build_dataset(dataset))
    return applications


def expected_dataset_counts(dataset: str) -> dict[str, int]:
    """The Table 2 row for one dataset, keyed by misconfiguration class."""
    targets = DATASETS[dataset].targets
    return {
        "M1": targets.m1, "M2": targets.m2, "M3": targets.m3,
        "M4A": targets.m4a, "M4B": targets.m4b, "M4C": targets.m4c, "M4*": targets.m4_global,
        "M5A": targets.m5a, "M5B": targets.m5b, "M5C": targets.m5c, "M5D": targets.m5d,
        "M6": targets.m6, "M7": targets.m7,
    }


def validate_targets() -> None:
    """Check that the encoded targets sum to the paper's grand totals."""
    total_apps = sum(t.total_apps for t in TABLE2_TARGETS.values())
    total_affected = sum(t.affected_apps for t in TABLE2_TARGETS.values())
    total_misconfigs = sum(t.total_misconfigurations() for t in TABLE2_TARGETS.values())
    if total_apps != TABLE2_ROW_SUM_APPLICATIONS:
        raise CatalogError(f"total applications {total_apps} != {TABLE2_ROW_SUM_APPLICATIONS}")
    if total_affected != TABLE2_AFFECTED_APPLICATIONS:
        raise CatalogError(f"affected applications {total_affected} != {TABLE2_AFFECTED_APPLICATIONS}")
    if total_misconfigs != TABLE2_TOTAL_MISCONFIGURATIONS:
        raise CatalogError(
            f"total misconfigurations {total_misconfigs} != {TABLE2_TOTAL_MISCONFIGURATIONS}"
        )
