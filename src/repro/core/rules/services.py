"""Service reference rules: M5A, M5B, M5C and M5D.

All four are per-service emitters shared by the rule-at-a-time reference
path and the compiled single-pass engine (:mod:`repro.core.rules.compiled`);
the selected-unit lists and per-unit port sets they consume come memoized
from the indexed analysis context, so the fused pass resolves each service's
backends once for all rules.
"""

from __future__ import annotations

from ..context import AnalysisContext
from ..findings import Finding, MisconfigClass
from .base import HYBRID, STATIC, Rule, default_rule
from ...k8s import ComputeUnit, Service


def _resolve_target_port(service_port, units: list[ComputeUnit]) -> int | None:
    """Resolve a (possibly named) target port against the selected units."""
    target = service_port.resolved_target()
    if isinstance(target, int):
        return target
    for unit in units:
        resolved = unit.resolve_port_name(str(target))
        if resolved is not None:
            return resolved
    return None


@default_rule
class ServiceTargetsUnopenedPortRule(Rule):
    """M5A: a service forwards to a port that is declared but never opened.

    This amplifies M3: services are the preferred way to contact applications,
    so requests routed to the dead port silently fail (or can be intercepted
    by an attacker that starts listening on it).
    """

    produces = (MisconfigClass.M5A,)
    requires = HYBRID

    def evaluate(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for service in context.services():
            self._check_service(context, service, {}, findings)
        return findings

    def compile_into(self, plan) -> bool:
        plan.on_service(self, self._check_service)
        return True

    @staticmethod
    def _check_service(
        context: AnalysisContext, service: Service, state: dict, out: list[Finding]
    ) -> None:
        if service.is_headless:
            return
        units = context.units_selected_by(service)
        if not units:
            return
        observed: set[int] = set()
        declared: set[int] = set()
        for unit in units:
            observed.update(context.stable_open_ports(unit, "TCP"))
            observed.update(context.dynamic_ports(unit, "TCP"))
            declared.update(unit.declared_port_numbers("TCP"))
        for service_port in service.ports:
            target = _resolve_target_port(service_port, units)
            if target is None:
                target_raw = service_port.resolved_target()
                target = target_raw if isinstance(target_raw, int) else None
            if target is None:
                continue
            if target not in observed:
                declaration = "declared but not open" if target in declared else "not open"
                out.append(
                    Finding(
                        misconfig_class=MisconfigClass.M5A,
                        application=context.application,
                        resource=service.qualified_name(),
                        port=service_port.port,
                        related_resources=tuple(unit.qualified_name() for unit in units),
                        message=(
                            f"service {service.name!r} port {service_port.port} targets "
                            f"container port {target}, which is {declaration} on any "
                            "selected pod; requests routed there fail or can be intercepted"
                        ),
                        evidence={"target_port": target, "observed": sorted(observed)},
                        mitigation=(
                            "Point the service at a port the application actually opens, or "
                            "enable the feature that listens on the target port."
                        ),
                    )
                )


@default_rule
class ServiceTargetsUndeclaredPortRule(Rule):
    """M5B: a service forwards to a port that the pod template never declares."""

    produces = (MisconfigClass.M5B,)
    requires = STATIC

    def evaluate(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for service in context.services():
            self._check_service(context, service, {}, findings)
        return findings

    def compile_into(self, plan) -> bool:
        plan.on_service(self, self._check_service)
        return True

    @staticmethod
    def _check_service(
        context: AnalysisContext, service: Service, state: dict, out: list[Finding]
    ) -> None:
        if service.is_headless:
            # Headless services with unavailable ports are reported as M5C.
            return
        units = context.units_selected_by(service)
        if not units:
            return
        declared: set[int] = set()
        observed: set[int] = set()
        for unit in units:
            declared.update(unit.declared_port_numbers())
            observed.update(context.stable_open_ports(unit, "TCP"))
            observed.update(context.dynamic_ports(unit, "TCP"))
        for service_port in service.ports:
            target = service_port.resolved_target()
            if isinstance(target, str):
                # A named port that no selected unit declares is also undeclared.
                if any(unit.resolve_port_name(target) is not None for unit in units):
                    continue
                resolved = None
            else:
                resolved = target
                if target in declared:
                    continue
                if context.has_runtime and target not in observed:
                    # Neither declared nor open: reported as M5A (dead
                    # endpoint) rather than as an evasion-style M5B.
                    continue
            out.append(
                Finding(
                    misconfig_class=MisconfigClass.M5B,
                    application=context.application,
                    resource=service.qualified_name(),
                    port=service_port.port,
                    related_resources=tuple(unit.qualified_name() for unit in units),
                    message=(
                        f"service {service.name!r} port {service_port.port} targets "
                        f"{target!r}, which is not declared by any selected compute unit"
                    ),
                    evidence={"target_port": resolved, "declared": sorted(declared)},
                    mitigation=(
                        "Declare the target port on the pod template, or fix the service's "
                        "targetPort so static checks and policy generators see the real flow."
                    ),
                )
            )


@default_rule
class HeadlessServicePortUnavailableRule(Rule):
    """M5C: a headless service names a port that its pods do not open."""

    produces = (MisconfigClass.M5C,)
    requires = HYBRID

    def evaluate(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for service in context.services():
            self._check_service(context, service, {}, findings)
        return findings

    def compile_into(self, plan) -> bool:
        plan.on_service(self, self._check_service)
        return True

    @staticmethod
    def _check_service(
        context: AnalysisContext, service: Service, state: dict, out: list[Finding]
    ) -> None:
        if not service.is_headless:
            return
        units = context.units_selected_by(service)
        if not units:
            return
        observed: set[int] = set()
        for unit in units:
            observed.update(context.stable_open_ports(unit, "TCP"))
            observed.update(context.dynamic_ports(unit, "TCP"))
        for service_port in service.ports:
            target = _resolve_target_port(service_port, units)
            if target is None or target in observed:
                continue
            out.append(
                Finding(
                    misconfig_class=MisconfigClass.M5C,
                    application=context.application,
                    resource=service.qualified_name(),
                    port=service_port.port,
                    related_resources=tuple(unit.qualified_name() for unit in units),
                    message=(
                        f"headless service {service.name!r} exposes port {service_port.port} "
                        f"(target {target}) but the selected pods do not listen on it; "
                        "clients resolving the DNS record will fail to connect"
                    ),
                    evidence={"target_port": target, "observed": sorted(observed)},
                    mitigation=(
                        "Remove the port from the headless service or align it with a port "
                        "the application opens (headless services do not remap ports)."
                    ),
                )
            )


@default_rule
class ServiceWithoutTargetRule(Rule):
    """M5D: a service whose selector matches no compute unit at all."""

    produces = (MisconfigClass.M5D,)
    requires = STATIC

    def evaluate(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for service in context.services():
            self._check_service(context, service, {}, findings)
        return findings

    def compile_into(self, plan) -> bool:
        plan.on_service(self, self._check_service)
        return True

    @staticmethod
    def _check_service(
        context: AnalysisContext, service: Service, state: dict, out: list[Finding]
    ) -> None:
        if not service.has_selector:
            # Selector-less services are managed manually (external
            # endpoints); Kubernetes does not expect pods to match them.
            return
        if context.units_selected_by(service):
            return
        out.append(
            Finding(
                misconfig_class=MisconfigClass.M5D,
                application=context.application,
                resource=service.qualified_name(),
                message=(
                    f"service {service.name!r} selects labels "
                    f"{service.selector.match_labels.to_dict()} but no compute unit matches; "
                    "any pod deploying those labels would silently receive its traffic"
                ),
                evidence={"selector": service.selector.to_dict()},
                mitigation=(
                    "Fix the selector so it matches the intended compute unit, or delete the "
                    "orphaned service."
                ),
            )
        )
