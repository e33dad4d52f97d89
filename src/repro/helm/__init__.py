"""Helm chart engine substrate.

Models Helm charts (values, templates, dependencies), renders them with a
Go-template subset engine, and produces typed Kubernetes objects the analyzer
and cluster simulator consume.
"""

from .chart import (
    Chart,
    ChartDependency,
    ChartMetadata,
    ChartSource,
    ChartTemplate,
)
from .errors import ChartError, HelmError, RenderError, TemplateError, ValuesError
from .render_cache import RenderCache, shared_render_cache
from .renderer import HelmRenderer, ReleaseInfo, RenderedChart, render_chart
from .structured import clear_skeleton_parse_memo, skeleton_parse_count
from .template import (
    CompiledTemplate,
    TemplateEngine,
    clear_template_cache,
    compile_source,
    parse_template,
    template_parse_count,
    tokenize_expression,
)
from .values import (
    deep_merge,
    dump_values,
    fingerprint_values,
    get_path,
    load_values,
    set_path,
)

__all__ = [
    "Chart",
    "ChartDependency",
    "ChartError",
    "ChartMetadata",
    "ChartSource",
    "ChartTemplate",
    "CompiledTemplate",
    "HelmError",
    "HelmRenderer",
    "ReleaseInfo",
    "RenderCache",
    "RenderError",
    "RenderedChart",
    "TemplateEngine",
    "TemplateError",
    "ValuesError",
    "clear_skeleton_parse_memo",
    "clear_template_cache",
    "compile_source",
    "deep_merge",
    "dump_values",
    "fingerprint_values",
    "get_path",
    "load_values",
    "parse_template",
    "render_chart",
    "set_path",
    "shared_render_cache",
    "skeleton_parse_count",
    "template_parse_count",
    "tokenize_expression",
]
