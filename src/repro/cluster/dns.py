"""Cluster DNS simulation.

Reproduces the resolution behaviour that matters for the analysis:

* ``<service>.<namespace>.svc.cluster.local`` resolves to the service
  ClusterIP for normal services;
* headless services (``clusterIP: None``) resolve directly to the IPs of the
  pods they select -- the behaviour behind misconfiguration M5C;
* a service with no ready endpoints still resolves (normal service) or
  returns no records (headless), mirroring ``kube-dns``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .endpoints import ServiceBinding


@dataclass(frozen=True)
class DNSRecord:
    """The answer to a DNS query inside the cluster."""

    fqdn: str
    addresses: tuple[str, ...]
    headless: bool = False

    @property
    def resolvable(self) -> bool:
        return bool(self.addresses)


class ClusterDNS:
    """Maps service names to addresses based on the current bindings."""

    CLUSTER_DOMAIN = "cluster.local"

    def __init__(self) -> None:
        self._bindings: dict[tuple[str, str], ServiceBinding] = {}
        self._service_ips: dict[tuple[str, str], str] = {}

    def reset(self) -> None:
        """Forget every programmed record."""
        self._bindings.clear()
        self._service_ips.clear()

    # Programming the resolver ------------------------------------------------
    def program(self, bindings: list[ServiceBinding], service_ips: dict[tuple[str, str], str]) -> None:
        """Load the current service bindings and allocated ClusterIPs."""
        self._bindings = {
            (binding.service.namespace, binding.service.name): binding for binding in bindings
        }
        self._service_ips = dict(service_ips)

    # Lookup -------------------------------------------------------------------
    def fqdn(self, service_name: str, namespace: str = "default") -> str:
        return f"{service_name}.{namespace}.svc.{self.CLUSTER_DOMAIN}"

    def resolve(self, name: str, default_namespace: str = "default") -> DNSRecord:
        """Resolve a service name (short, namespaced, or fully qualified)."""
        service_name, namespace = self._parse_name(name, default_namespace)
        binding = self._bindings.get((namespace, service_name))
        fqdn = self.fqdn(service_name, namespace)
        if binding is None:
            return DNSRecord(fqdn=fqdn, addresses=())
        if binding.service.is_headless:
            addresses = tuple(backend.ip for backend in binding.backends)
            return DNSRecord(fqdn=fqdn, addresses=addresses, headless=True)
        cluster_ip = self._service_ips.get((namespace, service_name), "")
        return DNSRecord(fqdn=fqdn, addresses=(cluster_ip,) if cluster_ip else ())

    def _parse_name(self, name: str, default_namespace: str) -> tuple[str, str]:
        parts = name.split(".")
        if len(parts) == 1:
            return parts[0], default_namespace
        # "<svc>.<ns>" or "<svc>.<ns>.svc.cluster.local"
        return parts[0], parts[1]
