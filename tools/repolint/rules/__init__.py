"""Rule registry: one module per family, ``default_rules`` builds all."""

from __future__ import annotations

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import Rule
from tools.repolint.rules.annotations import AnnotationFloorRule
from tools.repolint.rules.collector import CollectorControlRule
from tools.repolint.rules.determinism import (
    ForbiddenNondeterminismRule,
    LinkStreamRule,
    UnorderedIterationRule,
)
from tools.repolint.rules.clock import NodeClockRule
from tools.repolint.rules.durability import DurableWriteRule
from tools.repolint.rules.dispatch import (
    MessageDispatchRule,
    StepRegistryRule,
)
from tools.repolint.rules.hotpath import HotPathAllocRule, SlotsRule
from tools.repolint.rules.inline_copies import InlineCopyPinnedRule
from tools.repolint.rules.knobs import ConfigKnobLivenessRule, ParamKnobLivenessRule
from tools.repolint.rules.state import ProtectedStateRule
from tools.repolint.rules.tracekinds import TraceRegistryRule

__all__ = ["default_rules", "rule_classes"]


def rule_classes() -> list[type[Rule]]:
    return [
        ForbiddenNondeterminismRule,
        UnorderedIterationRule,
        LinkStreamRule,
        SlotsRule,
        HotPathAllocRule,
        TraceRegistryRule,
        MessageDispatchRule,
        StepRegistryRule,
        ProtectedStateRule,
        DurableWriteRule,
        NodeClockRule,
        ConfigKnobLivenessRule,
        ParamKnobLivenessRule,
        AnnotationFloorRule,
        InlineCopyPinnedRule,
        CollectorControlRule,
    ]


def default_rules(config: RepolintConfig) -> list[Rule]:
    return [cls(config) for cls in rule_classes()]
