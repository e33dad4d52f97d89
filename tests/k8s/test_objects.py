"""Unit tests for metadata, containers, pods and workload controllers."""

import copy

import pytest

from repro.k8s import (
    Container,
    ContainerPort,
    CronJob,
    DaemonSet,
    Deployment,
    EnvVar,
    Job,
    LabelSet,
    ObjectMeta,
    Pod,
    PodSpec,
    PodTemplateSpec,
    Probe,
    StatefulSet,
    ValidationError,
    equality_selector,
    is_compute_unit_kind,
    is_ephemeral_port,
    objects_from_dicts,
    validate_port_number,
)
from tests.conftest import make_deployment


class TestObjectMeta:
    def test_defaults(self):
        meta = ObjectMeta(name="web")
        assert meta.namespace == "default"
        assert meta.labels == {}

    def test_invalid_name_is_rejected(self):
        with pytest.raises(ValidationError):
            ObjectMeta(name="Invalid_Name")

    def test_invalid_namespace_is_rejected(self):
        with pytest.raises(ValidationError):
            ObjectMeta(name="web", namespace="name.with.dots")

    def test_labels_are_converted_to_labelset(self):
        meta = ObjectMeta(name="web", labels={"app": "web"})
        assert isinstance(meta.labels, LabelSet)

    def test_round_trip(self):
        meta = ObjectMeta(name="web", namespace="prod", labels={"a": "b"}, annotations={"x": "y"})
        assert ObjectMeta.from_dict(meta.to_dict()) == meta

    def test_qualified_name(self):
        deployment = make_deployment("web", namespace="prod")
        assert deployment.qualified_name() == "Deployment/prod/web"

    def test_key_is_kind_namespace_name(self):
        assert make_deployment("web").key == ("Deployment", "default", "web")


POLICY = {
    "apiVersion": "networking.k8s.io/v1",
    "kind": "NetworkPolicy",
    "metadata": {"name": "deny", "namespace": "prod"},
    "spec": {
        "podSelector": {
            "matchExpressions": [{"key": "app", "operator": "In", "values": ["web"]}]
        }
    },
}


class TestBadInputTypes:
    """A non-string or unhashable name, namespace or selector key is a
    ``ValidationError``, not the ``TypeError`` of a validation-memo lookup."""

    @pytest.mark.parametrize("interned", [False, True], ids=["fresh", "interned"])
    @pytest.mark.parametrize("value", [7, ["web"], {"app": "web"}], ids=["int", "list", "dict"])
    @pytest.mark.parametrize(
        "path",
        [
            ("metadata", "name"),
            ("metadata", "namespace"),
            ("spec", "podSelector", "matchExpressions", 0, "key"),
        ],
        ids=["name", "namespace", "selector-key"],
    )
    def test_objects_from_dicts_raises_validation_error(self, path, value, interned):
        document = copy.deepcopy(POLICY)
        node = document
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(ValidationError):
            objects_from_dicts([document], interned=interned)


class TestContainerPort:
    def test_valid_port(self):
        port = ContainerPort(8080, name="http")
        assert port.container_port == 8080

    @pytest.mark.parametrize("bad", [0, -1, 65536, 70000])
    def test_invalid_port_number(self, bad):
        with pytest.raises(ValidationError):
            ContainerPort(bad)

    def test_invalid_protocol(self):
        with pytest.raises(ValidationError):
            ContainerPort(80, protocol="ICMP")

    def test_round_trip(self):
        port = ContainerPort(8443, protocol="TCP", name="https", host_port=443)
        assert ContainerPort.from_dict(port.to_dict()) == port

    def test_validate_port_number_helper(self):
        assert validate_port_number(443) == 443
        with pytest.raises(ValidationError):
            validate_port_number(True)

    def test_ephemeral_port_range(self):
        assert is_ephemeral_port(40000)
        assert not is_ephemeral_port(8080)
        assert not is_ephemeral_port(61001)


class TestContainer:
    def test_declared_port_numbers_by_protocol(self):
        container = Container(
            name="c",
            ports=[ContainerPort(80), ContainerPort(53, protocol="UDP")],
        )
        assert container.declared_port_numbers() == {80, 53}
        assert container.declared_port_numbers("TCP") == {80}
        assert container.declared_port_numbers("UDP") == {53}

    def test_port_named(self):
        container = Container(name="c", ports=[ContainerPort(80, name="http")])
        assert container.port_named("http").container_port == 80
        assert container.port_named("missing") is None

    def test_env_value(self):
        container = Container(name="c", env=[EnvVar("PORT", "9000")])
        assert container.env_value("PORT") == "9000"
        assert container.env_value("OTHER", "fallback") == "fallback"

    def test_duplicate_port_names_rejected(self):
        container = Container(
            name="c", ports=[ContainerPort(80, name="web"), ContainerPort(81, name="web")]
        )
        with pytest.raises(ValidationError):
            container.validate()

    def test_container_without_name_rejected(self):
        with pytest.raises(ValidationError):
            Container(name="").validate()

    def test_round_trip_with_probes(self):
        container = Container(
            name="c",
            image="img",
            ports=[ContainerPort(80, name="http")],
            liveness_probe=Probe(port=80, path="/healthz"),
            readiness_probe=Probe(port="http", kind="tcpSocket"),
        )
        restored = Container.from_dict(container.to_dict())
        assert restored.name == "c"
        assert restored.liveness_probe.port == 80

    def test_probe_from_empty_dict(self):
        assert Probe.from_dict(None) is None
        assert Probe.from_dict({}) is None


class TestPodSpec:
    def test_requires_at_least_one_container(self):
        with pytest.raises(ValidationError):
            PodSpec().validate()

    def test_duplicate_container_names_rejected(self):
        spec = PodSpec(containers=[Container(name="a"), Container(name="a")])
        with pytest.raises(ValidationError):
            spec.validate()

    def test_declared_port_numbers_across_containers(self):
        spec = PodSpec(
            containers=[
                Container(name="a", ports=[ContainerPort(80)]),
                Container(name="b", ports=[ContainerPort(9090)]),
            ]
        )
        assert spec.declared_port_numbers() == {80, 9090}

    def test_resolve_port_name(self):
        spec = PodSpec(containers=[Container(name="a", ports=[ContainerPort(80, name="http")])])
        assert spec.resolve_port_name("http") == 80
        assert spec.resolve_port_name("nope") is None

    def test_round_trip(self):
        spec = PodSpec(
            containers=[Container(name="a", ports=[ContainerPort(80)])],
            host_network=True,
            service_account_name="svc",
        )
        restored = PodSpec.from_dict(spec.to_dict())
        assert restored.host_network is True
        assert restored.service_account_name == "svc"


class TestPod:
    def test_pod_from_template_copies_labels_and_spec(self):
        template = PodTemplateSpec(
            metadata=ObjectMeta(name="tmpl", labels=LabelSet({"app": "web"})),
            spec=PodSpec(containers=[Container(name="c", ports=[ContainerPort(80)])]),
        )
        pod = Pod.from_template(template, name="web-0", extra_labels={"pod-template-hash": "abc"})
        assert pod.labels == {"app": "web", "pod-template-hash": "abc"}
        assert pod.spec.declared_port_numbers() == {80}

    def test_pod_validation_requires_name(self):
        pod = Pod(spec=PodSpec(containers=[Container(name="c")]))
        with pytest.raises(ValidationError):
            pod.validate()

    def test_pod_to_dict_contains_kind(self):
        pod = Pod(metadata=ObjectMeta(name="p"), spec=PodSpec(containers=[Container(name="c")]))
        data = pod.to_dict()
        assert data["kind"] == "Pod"
        assert data["spec"]["containers"][0]["name"] == "c"


class TestWorkloads:
    def test_deployment_replica_count(self):
        assert make_deployment(replicas=3).replica_count() == 3

    def test_negative_replicas_clamp_to_zero(self):
        assert make_deployment(replicas=-2).replica_count() == 0

    def test_selector_must_match_template(self):
        deployment = make_deployment()
        deployment.selector = equality_selector(app="other")
        with pytest.raises(ValidationError):
            deployment.validate()

    def test_valid_deployment_passes_validation(self):
        make_deployment().validate()

    def test_statefulset_round_trip_preserves_service_name(self):
        sts = StatefulSet(
            metadata=ObjectMeta(name="db", labels=LabelSet({"app": "db"})),
            replicas=2,
            selector=equality_selector(app="db"),
            template=PodTemplateSpec(
                metadata=ObjectMeta(name="db", labels=LabelSet({"app": "db"})),
                spec=PodSpec(containers=[Container(name="db", ports=[ContainerPort(5432)])]),
            ),
            service_name="db-headless",
        )
        restored = StatefulSet.from_dict(sts.to_dict())
        assert restored.service_name == "db-headless"
        assert restored.replica_count() == 2

    def test_daemonset_has_no_replicas_in_spec(self):
        daemonset = DaemonSet(
            metadata=ObjectMeta(name="agent", labels=LabelSet({"app": "agent"})),
            selector=equality_selector(app="agent"),
            template=PodTemplateSpec(
                metadata=ObjectMeta(name="agent", labels=LabelSet({"app": "agent"})),
                spec=PodSpec(containers=[Container(name="agent")]),
            ),
        )
        assert "replicas" not in daemonset.to_dict()["spec"]
        assert daemonset.replica_count() >= 1

    def test_job_without_selector_is_valid(self):
        job = Job(
            metadata=ObjectMeta(name="migrate"),
            template=PodTemplateSpec(
                metadata=ObjectMeta(name="migrate"),
                spec=PodSpec(containers=[Container(name="migrate")]),
            ),
        )
        job.validate()

    def test_cronjob_round_trip(self):
        cronjob = CronJob(
            metadata=ObjectMeta(name="backup"),
            schedule="0 3 * * *",
            template=PodTemplateSpec(
                metadata=ObjectMeta(name="backup"),
                spec=PodSpec(containers=[Container(name="backup")]),
            ),
        )
        restored = CronJob.from_dict(cronjob.to_dict())
        assert restored.schedule == "0 3 * * *"
        assert restored.template.spec.containers[0].name == "backup"

    def test_workload_pod_labels_come_from_template(self):
        deployment = make_deployment(labels={"app": "x"})
        assert deployment.pod_labels() == {"app": "x"}

    def test_compute_unit_kind_helper(self):
        assert is_compute_unit_kind("Deployment")
        assert is_compute_unit_kind("Pod")
        assert not is_compute_unit_kind("Service")
