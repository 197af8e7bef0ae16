"""The static task model.

A Multiscalar task (Section 2.2) is a connected, single-entry subgraph
of a function's CFG: dynamically it is entered only at its *root*
block and left whenever control crosses a non-internal edge.  Tasks may
overlap (task-code replication): a block can be internal to one task
and the root of another.  A :class:`TaskPartition` indexes tasks by
root block and guarantees that every possible inter-task transition
target has a task rooted at it.

Each task exposes an ordered list of :class:`Target` descriptors — the
"successors" the hardware inter-task predictor chooses among.  The
hardware tracks at most N of them (N = 4 in the paper); targets beyond
the table width always mispredict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.ir.block import BlockId
from repro.ir.program import Program

TaskEdge = Tuple[BlockId, BlockId]


class TargetKind(enum.Enum):
    """How a task transfers control to its successor."""

    BLOCK = "block"  #: falls/branches to another block of the same function
    CALL = "call"  #: calls a (non-absorbed) function; target is its entry
    RETURN = "return"  #: returns to the caller; target is dynamic
    HALT = "halt"  #: program end


@dataclass(frozen=True)
class Target:
    """One successor of a task.

    ``block`` is the successor's root block for BLOCK and CALL kinds
    and ``None`` for RETURN / HALT (resolved dynamically or final).
    """

    kind: TargetKind
    block: Optional[BlockId] = None

    @property
    def sort_key(self):
        """Deterministic ordering key (kind name, then block id)."""
        return (self.kind.value, self.block or ("", ""))

    def __lt__(self, other: "Target") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        if self.block is not None:
            return f"{self.kind.value}:{self.block[0]}:{self.block[1]}"
        return self.kind.value


@dataclass
class Task:
    """A static task: root block, member blocks, internal edges, targets."""

    task_id: int
    function: str
    root: BlockId
    blocks: FrozenSet[BlockId]
    internal_edges: FrozenSet[TaskEdge]
    targets: Tuple[Target, ...]
    #: call blocks inside this task whose callee is absorbed (executed
    #: within the task rather than terminating it)
    absorbed_calls: FrozenSet[BlockId] = frozenset()

    @property
    def block_count(self) -> int:
        """Number of member basic blocks."""
        return len(self.blocks)

    @property
    def target_count(self) -> int:
        """Number of distinct successors."""
        return len(self.targets)

    def is_internal(self, src: BlockId, dst: BlockId) -> bool:
        """True if the dynamic transition ``src -> dst`` stays in-task."""
        return (src, dst) in self.internal_edges

    def target_index(self, target: Target) -> Optional[int]:
        """Position of ``target`` in the ordered target list, else None."""
        try:
            return self.targets.index(target)
        except ValueError:
            return None

    def static_size(self, program: Program) -> int:
        """Static instruction count over member blocks."""
        return sum(program.block(b).size for b in self.blocks)

    def validate(self, program: Program) -> None:
        """Check task invariants; raise ``ValueError`` on violation.

        * root is a member block; all members are in ``function``;
        * internal edges connect member blocks;
        * every member is reachable from the root via internal edges
          (connected, single entry);
        * internal edges are acyclic (a dynamic instance never revisits
          a block — re-entry is only at the root, i.e. a new instance).
        """
        if self.root not in self.blocks:
            raise ValueError(f"task {self.task_id}: root not a member block")
        for blk in self.blocks:
            if blk[0] != self.function:
                raise ValueError(
                    f"task {self.task_id}: block {blk} outside {self.function!r}"
                )
            program.block(blk)  # raises KeyError if missing
        adj: Dict[BlockId, List[BlockId]] = {b: [] for b in self.blocks}
        for src, dst in self.internal_edges:
            if src not in self.blocks or dst not in self.blocks:
                raise ValueError(
                    f"task {self.task_id}: internal edge {src}->{dst} "
                    "leaves the member set"
                )
            adj[src].append(dst)
        # Reachability from root.
        seen: Set[BlockId] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node])
        if seen != set(self.blocks):
            missing = set(self.blocks) - seen
            raise ValueError(
                f"task {self.task_id}: blocks unreachable from root: "
                f"{sorted(missing)}"
            )
        # Acyclicity via iterative DFS colouring.
        colour: Dict[BlockId, int] = {}
        for start in self.blocks:
            if colour.get(start, 0):
                continue
            stack2: List[Tuple[BlockId, int]] = [(start, 0)]
            colour[start] = 1
            while stack2:
                node, idx = stack2[-1]
                children = adj[node]
                if idx < len(children):
                    stack2[-1] = (node, idx + 1)
                    child = children[idx]
                    state = colour.get(child, 0)
                    if state == 1:
                        raise ValueError(
                            f"task {self.task_id}: internal cycle through {child}"
                        )
                    if state == 0:
                        colour[child] = 1
                        stack2.append((child, 0))
                else:
                    colour[node] = 2
                    stack2.pop()

    def __str__(self) -> str:
        blocks = ", ".join(sorted(f"{b[1]}" for b in self.blocks))
        targets = ", ".join(str(t) for t in self.targets)
        return (
            f"task#{self.task_id} root={self.root[1]} in {self.function} "
            f"blocks=[{blocks}] targets=[{targets}]"
        )


class TaskPartition:
    """All tasks selected for a program, indexed by root block."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._by_root: Dict[BlockId, Task] = {}
        self._next_id = 0

    def new_task(
        self,
        function: str,
        root: BlockId,
        blocks: Set[BlockId],
        internal_edges: Set[TaskEdge],
        targets: List[Target],
        absorbed_calls: Set[BlockId] = frozenset(),
    ) -> Task:
        """Create, register, and return a task rooted at ``root``."""
        if root in self._by_root:
            raise ValueError(f"a task is already rooted at {root}")
        task = Task(
            task_id=self._next_id,
            function=function,
            root=root,
            blocks=frozenset(blocks),
            internal_edges=frozenset(internal_edges),
            targets=tuple(targets),
            absorbed_calls=frozenset(absorbed_calls),
        )
        self._next_id += 1
        self._by_root[root] = task
        return task

    def replace_task(self, task: Task) -> None:
        """Replace the task rooted at ``task.root`` (used by expansion)."""
        if task.root not in self._by_root:
            raise ValueError(f"no task rooted at {task.root}")
        self._by_root[task.root] = task

    def has_root(self, root: BlockId) -> bool:
        """True if some task is rooted at ``root``."""
        return root in self._by_root

    def task_at(self, root: BlockId) -> Task:
        """The task rooted at ``root``; ``KeyError`` if none."""
        return self._by_root[root]

    def tasks(self) -> Iterator[Task]:
        """Iterate all tasks, in root order (deterministic)."""
        for root in sorted(self._by_root):
            yield self._by_root[root]

    def __len__(self) -> int:
        return len(self._by_root)

    def tasks_containing(self, block: BlockId) -> List[Task]:
        """All tasks that include ``block`` as a member."""
        return [t for t in self.tasks() if block in t.blocks]

    def validate(self) -> None:
        """Validate every task and the partition-level closure property:

        every BLOCK / CALL target of every task has a task rooted at
        it, and the entry of ``main`` is rooted.
        """
        program = self.program
        main_entry = (program.main_name, program.main.entry_label)
        if main_entry not in self._by_root:
            raise ValueError("no task rooted at the program entry")
        for task in self.tasks():
            task.validate(program)
            for target in task.targets:
                if target.block is not None and target.block not in self._by_root:
                    raise ValueError(
                        f"task {task.task_id} target {target} has no rooted task"
                    )
