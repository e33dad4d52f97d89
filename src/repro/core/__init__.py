"""The paper's core contribution: the hybrid network-misconfiguration analyzer.

Public entry points:

* :class:`MisconfigurationAnalyzer` -- analyze a Helm chart or a set of
  Kubernetes objects (static, runtime or hybrid mode);
* :class:`MitigationEngine` / :func:`generate_network_policies` -- apply the
  Section 3.5 mitigations;
* :class:`NetworkMisconfigurationAdmission` -- the admission-time defense;
* the findings model (:class:`Finding`, :class:`AnalysisReport`,
  :class:`MisconfigClass`, :data:`CATALOG`) and report formatting.
"""

from .admission import (
    MODE_ENFORCE,
    MODE_WARN,
    AdmissionWarning,
    NetworkMisconfigurationAdmission,
)
from .analyzer import (
    ANALYSIS_STAGES,
    MODE_HYBRID,
    MODE_RUNTIME,
    MODE_STATIC,
    STAGE_OBSERVE,
    STAGE_RENDER,
    STAGE_RULES,
    AnalysisStageError,
    AnalyzerSettings,
    MisconfigurationAnalyzer,
)
from .cluster_wide import (
    ApplicationInventory,
    CollisionIndex,
    GlobalCollision,
    find_cross_application_selector_matches,
    find_global_collisions,
    global_collision_findings,
)
from .context import AnalysisContext
from .disclosure import (
    FEEDBACK_QUESTIONNAIRE,
    THREAT_MODEL_SUMMARY,
    DisclosureOutcome,
    DisclosureReport,
    LikertAnswer,
    QuestionnaireQuestion,
    QuestionnaireResponse,
    build_disclosures,
    summarize_outcomes,
)
from .findings import (
    CATALOG,
    TABLE_ORDER,
    AnalysisReport,
    Finding,
    MisconfigClass,
    MisconfigDescriptor,
    Severity,
    deduplicate_findings,
)
from .mitigation import (
    MitigationAction,
    MitigationEngine,
    MitigationResult,
    generate_network_policies,
)
from .report import (
    DatasetSummary,
    EvaluationSummary,
    format_report_json,
    format_report_markdown,
    format_report_text,
)
from .rules import Rule, RuleRegistry, default_rules

__all__ = [
    "ANALYSIS_STAGES",
    "CATALOG",
    "MODE_ENFORCE",
    "MODE_HYBRID",
    "MODE_RUNTIME",
    "MODE_STATIC",
    "MODE_WARN",
    "STAGE_OBSERVE",
    "STAGE_RENDER",
    "STAGE_RULES",
    "TABLE_ORDER",
    "AdmissionWarning",
    "AnalysisContext",
    "AnalysisReport",
    "AnalysisStageError",
    "AnalyzerSettings",
    "ApplicationInventory",
    "DatasetSummary",
    "DisclosureOutcome",
    "DisclosureReport",
    "FEEDBACK_QUESTIONNAIRE",
    "LikertAnswer",
    "QuestionnaireQuestion",
    "QuestionnaireResponse",
    "THREAT_MODEL_SUMMARY",
    "build_disclosures",
    "summarize_outcomes",
    "CollisionIndex",
    "EvaluationSummary",
    "Finding",
    "GlobalCollision",
    "MisconfigClass",
    "MisconfigDescriptor",
    "MisconfigurationAnalyzer",
    "MitigationAction",
    "MitigationEngine",
    "MitigationResult",
    "NetworkMisconfigurationAdmission",
    "Rule",
    "RuleRegistry",
    "Severity",
    "deduplicate_findings",
    "default_rules",
    "find_cross_application_selector_matches",
    "find_global_collisions",
    "format_report_json",
    "format_report_markdown",
    "format_report_text",
    "generate_network_policies",
    "global_collision_findings",
]
