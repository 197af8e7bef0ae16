"""Pluggable task-selection strategies (the ``SelectionStrategy`` protocol).

The paper stops at four fixed heuristics; this module turns "which
heuristic" into a dispatch point.  A strategy owns the four decisions
:func:`~repro.compiler.partition.select_tasks` makes:

1. **transform** — which code transforms run before selection
   (unrolling, induction hoisting, communication scheduling);
2. **wants_profile** — whether the driver must interpret the program
   to obtain a dynamic profile before growing tasks;
3. **absorbed_functions** — which callees execute inside the caller's
   task instead of terminating it;
4. **build** — how task boundaries are actually chosen.

Registered strategies:

* ``basic_block`` / ``control_flow`` / ``data_dependence`` /
  ``task_size`` — the paper's four levels (:class:`PaperStrategy`).
  These are the *reference* strategies: with a default-constructed
  :class:`~repro.compiler.heuristics.SelectionConfig` they are
  bit-identical to the pre-refactor pipeline (enforced by
  ``tests/test_strategies.py``).
* ``tunable`` (:class:`TunableStrategy`) — the paper pipeline with
  every threshold exposed as a gene: ``max_targets``,
  ``loop_thresh``, ``call_thresh``, ``max_unroll``, ``traversal``
  order, and the hoist/schedule toggles all come from the config.
  This is the search space of ``repro tune``.
* ``cost_model`` (:class:`CostModelStrategy`) — a greedy selector
  that scores each candidate boundary extension by predicted
  communication and squash cost from the profiler instead of the
  paper's open/closed dependence automaton.

``SelectionConfig.strategy`` names the strategy (empty string = the
reference strategy for ``config.level``); the name participates in
compile-cache identity via ``SelectionConfig.cache_key()`` and in
``RunSpec`` content hashes, so records produced by different
strategies can never alias each other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Type

from repro.compiler.control_flow import GrowthContext, GrowthPolicy
from repro.compiler.data_dependence import DependenceBook, ranked_dependences
from repro.compiler.heuristics import HeuristicLevel, SelectionConfig
from repro.compiler.sched import schedule_register_communication
from repro.compiler.task import Task, TaskPartition
from repro.compiler.task_size import absorbed_functions
from repro.compiler.transforms import (
    hoist_induction_increments,
    unroll_small_loops,
)
from repro.ir.block import BlockId
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.program import Program
from repro.profiling import Profile


class SelectionStrategy:
    """Protocol every task-selection strategy implements.

    Strategies are stateless singletons: every method receives the
    program / config it operates on, so one instance serves all
    compilations concurrently (the harness runs them from multiple
    worker processes).
    """

    #: registry name; also the value of ``SelectionConfig.strategy``
    name: str = ""
    #: one-line description for ``repro list --strategies``
    description: str = ""

    @classmethod
    def tunables(cls) -> Dict[str, object]:
        """Tunable parameter names mapped to their config defaults.

        ``repro list --strategies`` renders this; the autotuner's
        genome space (:mod:`repro.tune.genome`) is the superset of
        the ``tunable`` strategy's entry.
        """
        return {}

    # ------------------------------------------------------------ hooks

    def transform(self, program: Program, config: SelectionConfig) -> None:
        """Apply pre-selection code transforms to ``program`` in place."""

    def wants_profile(self, config: SelectionConfig) -> bool:
        """Must the driver profile the transformed program first?"""
        return False

    def absorbed_functions(
        self, program: Program, profile: Optional[Profile],
        config: SelectionConfig,
    ) -> Set[str]:
        """Callees whose calls do not terminate tasks."""
        return set()

    def build(
        self,
        partition: TaskPartition,
        contexts: Dict[str, GrowthContext],
        profile: Optional[Profile],
        config: SelectionConfig,
    ) -> None:
        """Populate ``partition`` with tasks (the selection proper)."""
        raise NotImplementedError


# --------------------------------------------------------------- coverage

def basic_block_tasks(
    partition: TaskPartition, contexts: Dict[str, GrowthContext]
) -> None:
    """Root a single-block task at every block of every function."""
    for fname, context in contexts.items():
        function = context.program.function(fname)
        for label in function.labels():
            members = {label}
            partition.new_task(
                function=fname,
                root=(fname, label),
                blocks={(fname, label)},
                internal_edges=set(),
                targets=context.compute_targets(members),
                absorbed_calls=set(),
            )


def task_successor_roots(task: Task, context: GrowthContext) -> List[BlockId]:
    """Roots this task's dynamic execution can expose.

    BLOCK and CALL targets directly; additionally the continuation of
    every non-absorbed call member block (entered when the callee
    returns) — it is a *successor of the callee's final task*, not of
    this one, but it must be rooted for the stream to proceed.
    """
    roots: List[BlockId] = []
    for target in task.targets:
        if target.block is not None:
            roots.append(target.block)
    program = context.program
    for block_id in sorted(task.blocks):
        blk = program.block(block_id)
        if blk.ends_in_call and block_id not in task.absorbed_calls:
            if blk.fallthrough is not None:
                roots.append((block_id[0], blk.fallthrough))
    return roots


def cover_program(
    partition: TaskPartition,
    contexts: Dict[str, GrowthContext],
    policy_factory,
) -> None:
    """Grow tasks from the entry until every exposed target is rooted.

    ``policy_factory(function_name)`` returns a fresh
    :class:`~repro.compiler.control_flow.GrowthPolicy` (or ``None``
    for pure control-flow growth) for each task grown in that
    function — strategies differ only in the policies they hand out.
    """
    program = partition.program
    main_entry: BlockId = (program.main_name, program.main.entry_label or "")
    worklist: Deque[BlockId] = deque([main_entry])
    processed: Set[BlockId] = set()

    while worklist:
        root = worklist.popleft()
        if root in processed:
            continue
        processed.add(root)
        fname, label = root
        context = contexts[fname]
        if partition.has_root(root):
            task = partition.task_at(root)
        else:
            members = context.grow(label, policy=policy_factory(fname))
            task = partition.new_task(
                function=fname,
                root=root,
                blocks={(fname, lbl) for lbl in members},
                internal_edges=context.compute_internal_edges(members),
                targets=context.compute_targets(members),
                absorbed_calls=context.absorbed_call_blocks(members),
            )
        for succ in task_successor_roots(task, context):
            if succ not in processed:
                worklist.append(succ)


# ---------------------------------------------------------------- paper

class PaperStrategy(SelectionStrategy):
    """The paper's cumulative heuristic progression, config-driven.

    One class serves all four levels: ``config.level`` gates each
    mechanism exactly as the pre-refactor driver did, so the four
    registered reference names are views of the same code path.
    """

    name = "paper"
    description = "the paper's heuristic progression (reference)"

    @classmethod
    def tunables(cls) -> Dict[str, object]:
        defaults = SelectionConfig()
        return {
            "max_targets": defaults.max_targets,
            "loop_thresh": defaults.loop_thresh,
            "call_thresh": defaults.call_thresh,
            "max_unroll": defaults.max_unroll,
            "hoist_induction": defaults.hoist_induction,
            "schedule_communication": defaults.schedule_communication,
        }

    def transform(self, program: Program, config: SelectionConfig) -> None:
        if config.use_task_size:
            unroll_small_loops(program, config.loop_thresh, config.max_unroll)
        if config.multi_block and config.hoist_induction:
            hoist_induction_increments(program)
        if config.multi_block and config.schedule_communication:
            schedule_register_communication(program)

    def wants_profile(self, config: SelectionConfig) -> bool:
        return config.use_data_dependence or config.use_task_size

    def absorbed_functions(
        self, program: Program, profile: Optional[Profile],
        config: SelectionConfig,
    ) -> Set[str]:
        if not config.use_task_size:
            return set()
        assert profile is not None
        return absorbed_functions(program, profile, config)

    def build(
        self,
        partition: TaskPartition,
        contexts: Dict[str, GrowthContext],
        profile: Optional[Profile],
        config: SelectionConfig,
    ) -> None:
        if config.level is HeuristicLevel.BASIC_BLOCK:
            basic_block_tasks(partition, contexts)
            return
        books: Dict[str, DependenceBook] = {}
        if config.use_data_dependence:
            assert profile is not None
            program = partition.program
            books = {
                fn.name: DependenceBook(
                    fn, contexts[fn.name].cfg, profile, config
                )
                for fn in program.functions()
            }
        cover_program(
            partition, contexts,
            lambda fname: books[fname].policy() if fname in books else None,
        )


class TunableStrategy(PaperStrategy):
    """The paper pipeline with every knob exposed as a genome gene.

    Identical mechanics to :class:`PaperStrategy` — the difference is
    contractual: ``tunable`` promises that *all* of ``max_targets``,
    ``loop_thresh``, ``call_thresh``, ``max_unroll``, ``traversal``,
    ``hoist_induction`` and ``schedule_communication`` are honoured
    from the config (the paper strategies honour them too, but their
    reference identity is only guaranteed at the defaults), and the
    strategy name keys the cache so tuned artifacts never alias
    reference artifacts.
    """

    name = "tunable"
    description = "paper pipeline with genome-exposed thresholds"

    @classmethod
    def tunables(cls) -> Dict[str, object]:
        out = dict(PaperStrategy.tunables())
        out["traversal"] = SelectionConfig().traversal
        out["level"] = SelectionConfig().level.value
        return out


# ----------------------------------------------------------- cost model

def policy_weights(machine) -> tuple:
    """(saved, opened, squash) weights of one machine (a
    :class:`~repro.sim.config.SimConfig`).

    The cost model's constants encode the paper machine: forwarding a
    register one ring hop between narrow PUs is cheap, so an opened
    dependence weighs half a saved one and a squashed slot weighs one
    occurrence.  On other machines both costs move:

    * **opened** grows with ring reach — a forwarded value crosses
      ``hop`` latency over (on average) half the ring, so machines
      with more PUs or slower links punish boundary-crossing
      dependences harder;
    * **squash** grows with the widest PU's issue width — one
      squashed task slot wastes that many issue opportunities per
      cycle on the PU that ran it.

    The paper machine (``paper-4x2``: 4 PUs, hop 1, issue 2) maps to
    exactly ``(2, 1, 1)`` — :class:`CostModelPolicy`'s class
    constants — so a hinted default machine is bit-identical to the
    unhinted path.
    """
    hop = machine.ring_hop_latency
    n = machine.n_pus
    max_issue = max(
        machine.pu_field(i, "issue_width") for i in range(n)
    )
    saved = CostModelPolicy.COMM_SAVED_WEIGHT
    opened = max(1, (hop * (n // 2)) // 4)
    squash = max(1, max_issue // 2)
    return (saved, opened, squash)


class CostBook:
    """Per-function profiled cost index shared by all task growths."""

    def __init__(self, function: Function, cfg: CFG, profile: Profile,
                 config: SelectionConfig) -> None:
        self.cfg = cfg
        self.profile = profile
        self.function_name = function.name
        if config.machine_hint:
            from repro.machines import get_machine

            self.weights = policy_weights(get_machine(config.machine_hint))
        else:
            self.weights = (
                CostModelPolicy.COMM_SAVED_WEIGHT,
                CostModelPolicy.COMM_OPENED_WEIGHT,
                CostModelPolicy.SQUASH_WEIGHT,
            )
        self.dependences = ranked_dependences(function, cfg, profile, config)
        #: block label -> indices of dependences produced there
        self.by_producer: Dict[str, List[int]] = {}
        #: block label -> indices of dependences consumed there
        self.by_consumer: Dict[str, List[int]] = {}
        for idx, dep in enumerate(self.dependences):
            self.by_producer.setdefault(dep.edge.def_block, []).append(idx)
            self.by_consumer.setdefault(dep.edge.use_block, []).append(idx)
        #: static instruction count per block (size pressure term)
        self.static_size: Dict[str, int] = {
            block.label: len(block.instructions)
            for block in function.blocks()
        }

    def block_count(self, label: str) -> int:
        return self.profile.block_count((self.function_name, label))

    def edge_count(self, src: str, dst: str) -> int:
        return self.profile.edge_count(
            (self.function_name, src), (self.function_name, dst)
        )

    def policy(self) -> "CostModelPolicy":
        return CostModelPolicy(self)


class CostModelPolicy(GrowthPolicy):
    """Greedy cost-model steering for a single task growth.

    Each candidate extension ``parent -> child`` is scored from the
    profile:

    * **communication saved** — dynamic def-use dependences whose
      producer is already in the task and whose consumer is ``child``
      become intra-task (no forward-ring transfer, no release delay);
    * **control locality** — every profiled traversal of the edge is
      a task-boundary prediction avoided;
    * **communication opened** — dependences ``child`` produces for
      consumers outside the task will cross the new boundary and must
      be forwarded (and can arrive late enough to stall or squash);
    * **speculation waste** — dynamic instances where the task ran
      ``parent`` but *not* this edge execute ``child``'s slot
      speculatively for nothing, and a mispredicted boundary there
      squashes the whole downstream task.

    ``child`` is admitted when the saved cost outweighs the predicted
    cost; static reconvergence joins are always admitted (the control
    flow heuristic's core asset).  All arithmetic is integer and all
    inputs are profiled counts, so growth is deterministic.
    """

    #: weight of an enclosed def-use occurrence vs an opened one
    COMM_SAVED_WEIGHT = 2
    COMM_OPENED_WEIGHT = 1
    #: weight of one untaken-path dynamic instance (squash proxy)
    SQUASH_WEIGHT = 1

    def __init__(self, book: CostBook) -> None:
        self.book = book
        self.members: Set[str] = set()
        # Per-machine weights from the book (class constants unless a
        # machine_hint reweighted them — see policy_weights).
        self.saved_weight, self.opened_weight, self.squash_weight = (
            book.weights
        )

    def on_include(self, label: str) -> None:
        self.members.add(label)

    def _reconverges(self, child: str) -> bool:
        return len(self.book.cfg.preds.get(child, ())) >= 2

    def allow(self, parent: str, child: str) -> bool:
        if self._reconverges(child):
            return True
        book = self.book
        deps = book.dependences
        saved = 0
        for idx in book.by_consumer.get(child, ()):
            if deps[idx].edge.def_block in self.members:
                saved += deps[idx].frequency
        opened = 0
        for idx in book.by_producer.get(child, ()):
            consumer = deps[idx].edge.use_block
            if consumer != child and consumer not in self.members:
                opened += deps[idx].frequency
        taken = book.edge_count(parent, child)
        untaken = max(book.block_count(parent) - taken, 0)
        gain = self.saved_weight * saved + taken
        cost = self.opened_weight * opened + self.squash_weight * untaken
        return gain > cost


class CostModelStrategy(SelectionStrategy):
    """Greedy profile-driven selector scoring predicted squash/comm cost.

    Runs the multi-block transforms (hoisting + communication
    scheduling; no unrolling — boundaries are chosen, not code
    reshaped), always profiles, absorbs no calls, and grows every
    task under :class:`CostModelPolicy`.
    """

    name = "cost_model"
    description = "greedy selector scoring profiled squash/comm cost"

    @classmethod
    def tunables(cls) -> Dict[str, object]:
        defaults = SelectionConfig()
        return {
            "max_targets": defaults.max_targets,
            "max_dependences": defaults.max_dependences,
            "hoist_induction": defaults.hoist_induction,
            "schedule_communication": defaults.schedule_communication,
            "machine_hint": defaults.machine_hint,
        }

    def transform(self, program: Program, config: SelectionConfig) -> None:
        if config.hoist_induction:
            hoist_induction_increments(program)
        if config.schedule_communication:
            schedule_register_communication(program)

    def wants_profile(self, config: SelectionConfig) -> bool:
        return True

    def build(
        self,
        partition: TaskPartition,
        contexts: Dict[str, GrowthContext],
        profile: Optional[Profile],
        config: SelectionConfig,
    ) -> None:
        assert profile is not None
        books = {
            fn.name: CostBook(fn, contexts[fn.name].cfg, profile, config)
            for fn in partition.program.functions()
        }
        cover_program(
            partition, contexts, lambda fname: books[fname].policy()
        )


# -------------------------------------------------------------- registry

_STRATEGIES: Dict[str, SelectionStrategy] = {}
#: names backed by the reference (paper) code path
REFERENCE_STRATEGIES = tuple(level.value for level in HeuristicLevel)


def register_strategy(cls: Type[SelectionStrategy],
                      name: Optional[str] = None) -> None:
    """Register a strategy instance under ``name`` (default: its name)."""
    key = name or cls.name
    if not key:
        raise ValueError("strategy needs a non-empty name")
    if key in _STRATEGIES:
        raise ValueError(f"duplicate strategy {key!r}")
    _STRATEGIES[key] = cls()


for _level in HeuristicLevel:
    register_strategy(PaperStrategy, _level.value)
register_strategy(TunableStrategy)
register_strategy(CostModelStrategy)


def strategy_names() -> List[str]:
    """Registered strategy names: reference levels first, then extras."""
    extras = sorted(set(_STRATEGIES) - set(REFERENCE_STRATEGIES))
    return list(REFERENCE_STRATEGIES) + extras


def get_strategy(config: SelectionConfig) -> SelectionStrategy:
    """The strategy a config dispatches to.

    ``config.strategy == ""`` resolves to the reference strategy of
    ``config.level`` — default configs hit the exact paper code path.
    """
    name = config.strategy or config.level.value
    try:
        return _STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise ValueError(
            f"unknown selection strategy {name!r}; known: {known}"
        ) from None


def describe_strategies() -> List[Dict[str, object]]:
    """Machine-readable strategy listing (``repro list --strategies``)."""
    out: List[Dict[str, object]] = []
    for name in strategy_names():
        strategy = _STRATEGIES[name]
        out.append({
            "name": name,
            "kind": ("reference" if name in REFERENCE_STRATEGIES
                     else "extra"),
            "class": type(strategy).__name__,
            "description": strategy.description,
            "tunables": dict(strategy.tunables()),
        })
    return out
