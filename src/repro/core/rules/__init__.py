"""Detection rules, one module per misconfiguration family."""

from .base import HYBRID, RUNTIME, STATIC, Rule, RuleRegistry, default_rule, default_rules
from .compiled import FusedPlan, evaluate_fused
from .labels import ComputeUnitCollisionRule, ComputeUnitSubsetCollisionRule, ServiceLabelCollisionRule
from .policies import HostNetworkRule, LackOfNetworkPoliciesRule
from .ports import DeclaredClosedPortsRule, DynamicPortsRule, UndeclaredOpenPortsRule
from .services import (
    HeadlessServicePortUnavailableRule,
    ServiceTargetsUndeclaredPortRule,
    ServiceTargetsUnopenedPortRule,
    ServiceWithoutTargetRule,
)

__all__ = [
    "HYBRID",
    "RUNTIME",
    "STATIC",
    "ComputeUnitCollisionRule",
    "ComputeUnitSubsetCollisionRule",
    "DeclaredClosedPortsRule",
    "DynamicPortsRule",
    "FusedPlan",
    "HeadlessServicePortUnavailableRule",
    "HostNetworkRule",
    "LackOfNetworkPoliciesRule",
    "Rule",
    "RuleRegistry",
    "ServiceLabelCollisionRule",
    "ServiceTargetsUndeclaredPortRule",
    "ServiceTargetsUnopenedPortRule",
    "ServiceWithoutTargetRule",
    "UndeclaredOpenPortsRule",
    "default_rule",
    "default_rules",
    "evaluate_fused",
]
