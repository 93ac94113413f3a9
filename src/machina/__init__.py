"""Hierarchical state machine engine for LLM-assisted workflows.

Machines are data (parsed from JSON), transitions are chosen by rule-based
or LLM-based policies over a persistent belief, and actions (LLM calls or
deterministic tools) fire on transitions and on state entry/exit.
"""

from .actions import ActionRegistry, builtin_registry
from .belief import (
    ActionRecord,
    Belief,
    TransitionRecord,
    belief_to_trace,
    kv_get,
    kv_set,
    new_belief,
    record_action,
    record_transition,
    render_history,
)
from .dot import export_dot
from .engine import (
    Agent,
    RunLimits,
    RunResult,
    dispatch,
    eval_guard,
    execute_action,
    run,
    start,
)
from .errors import MachinaError, SchemaError
from .guards import GuardSyntaxError, GuardTypeError, evaluate, guard_to_text, parse_guard
from .harness import EvalReport, generate_mini_clevr, oracle_answer, run_eval
from .json_extract import MAX_JSON_DEPTH, JsonSyntaxError
from .machine_io import (
    load_machine,
    parse_machine,
    serialize_machine,
)
from .model import (
    ActionSpec,
    Condition,
    EventInstance,
    ParameterSpec,
    State,
    StateMachine,
    Transition,
    ValidationReport,
    enabled_transitions,
    initial_entry_path,
    parent_chain,
    start_state,
    validate_machine,
)
from .policy import (
    CandidateTransition,
    LlmPolicy,
    Rule,
    RulePolicy,
    build_policy_prompt,
    decide,
    fast_forward,
    llm_decide,
    parse_policy_response,
    rule_decide,
)
from .providers import (
    CallStats,
    CompletionRequest,
    HttpProvider,
    ScriptedProvider,
    ScriptStep,
)
from .scene import (
    SceneGraph,
    SceneObject,
    classify_question,
    count_objects,
    extract_objects,
    filter_objects,
    parse_scene,
    query_attribute,
    related_objects,
    same_attribute,
)

__version__ = "0.1.0"
