/* Native kernel of the Multiscalar machine: the functional interpreter
 * and the cycle loop of the "fast" engine.
 *
 * ms_interp executes a program from per-pc tables of its static
 * instructions and records the trace's columns (repro.ir.interp.Trace):
 * the instruction count, the block entries (start index, block id,
 * start pc), the effective address of each memory op and the outcome
 * of each conditional branch.  Integer registers hold int64 and fp
 * registers doubles, as the reference Interpreter's Python ints and
 * floats do on every value the kernel accepts; any value it cannot
 * reproduce exactly (an int64 overflow, a negative shift, int() of a
 * NaN, infinite or out-of-range float, an int-versus-float compare
 * beyond 2^53, a division the reference raises on) and any error the
 * reference raises ends the run with INTERP_FALLBACK, and
 * repro.ir.interp.run_program interprets the program in Python instead.
 *
 * The cycle loop is a plain C port of MultiscalarMachine._tick and
 * everything it calls:
 * phases A-D in ring order (drain + store-violation checks, retire,
 * assign + successor prediction, issue + fetch + accounting), squash,
 * the path / gshare / hybrid task predictors and the return address
 * stack, the set-associative LRU caches, the LRU synchronisation table
 * and the per-PU ring egress schedule.  Every PU is visited every
 * cycle.  The one departure from _tick is that an issue scan that
 * issued nothing puts its PU to sleep (see issue): until its wake
 * cycle, or an event that can change the scan's outcome, phase D
 * charges the scan's stall reason without re-running it.  Results are
 * bit-identical, because a sleeping scan would have issued nothing and
 * charged the same reason.
 *
 * The static per-instruction buffers are built once per trace by
 * ms_lower, from flat trace columns (block-entry starts and pcs, the
 * effective address of each memory op, the outcome of each conditional
 * branch) and per-pc tables of the program's static instructions.
 * native.py owns them and hands them to every run of the trace.  Each
 * run derives every instruction's task and has_remote_consumer flag
 * from the per-task spans.  The run's mutable arrays (complete,
 * forward, generation, pu_of_seq) are caller-owned int64 buffers,
 * copied back into the machine afterwards.  A traced run logs each
 * lifecycle event as an EV_WORDS-word record, in order; the log
 * becomes the machine's `events`, record for record what _tick writes.
 *
 * Entry points (called through ctypes by repro.sim.native):
 *   ms_interp(iparams, ibufs, iout) -> handle   interpret a program
 *   ms_interp_copy(handle, what, dst)  copy one recorded trace column
 *   ms_interp_free(handle)
 *   ms_lower(lparams, lin, bufs, lout) -> status   fill the trace buffers
 *   ms_release(rparams, rbufs) -> status   SCHEDULE release flags
 *   ms_run(params, pu_params, bufs, out) -> handle (NULL: out of memory)
 *   ms_copy(handle, what, dst)            copy a variable-length output
 *   ms_free(handle)
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

#define NEVER ((i64)1 << 60)

/* Dense stall slots, in breakdown.REASONS order. */
enum {
    R_USEFUL, R_TASK_START, R_TASK_END, R_INTRA_DEP, R_INTER_COMM,
    R_MEMORY, R_SYNC_WAIT, R_FETCH, R_LOAD_IMBALANCE, R_IDLE, N_REASONS
};

/* params[] layout (int64), mirrored by native.py. */
enum {
    P_N, P_N_TASKS, P_N_PUS, P_OOO, P_ROB, P_ISSUE_LIST, P_TASK_START,
    P_TASK_END, P_BRANCH_PENALTY, P_REDIRECT, P_RING_BW, P_HOP_LAT,
    P_POLICY, P_RELEASE_LAG, P_ARB_LAT, P_ARB_ENTRIES, P_STLF_LAT,
    P_SYNC_SIZE, P_L1D_SETS, P_L1D_ASSOC, P_L1D_HIT, P_L1D_WPL,
    P_L1I_SETS, P_L1I_ASSOC, P_L1I_HIT, P_L1I_WPL, P_L2_SETS, P_L2_ASSOC,
    P_L2_HIT, P_MEM_LAT, P_MAX_CYCLES, P_PREDICTOR, P_TRACE, N_PARAMS
};

/* pu_params[] per PU: issue width, fetch width, 4 FU budgets, 4 extra
 * latencies (both in OPCLASS order). */
#define PU_PARAMS 10

/* bufs[] layout, mirrored by native.py.  The first N_TRACE_BUFS are
 * the trace's buffers, filled by ms_lower; the rest are per run. */
enum {
    B_OPCLS, B_IS_LOAD, B_IS_STORE, B_IS_MEM, B_IS_COND_BRANCH,
    B_BLOCK_START, B_HAS_WRITE, B_GSHARE_MISPRED,   /* u8[n]          */
    B_PC, B_ADDR,                                   /* i64[n]         */
    B_LATENCY, B_MEM_PRODUCER,                      /* i32[n]         */
    B_PROD_OFF, B_PROD,                             /* i32, CSR       */
    N_TRACE_BUFS,
    B_RELEASE_NOW = N_TRACE_BUFS,                   /* u8[n], SCHEDULE */
    B_HAS_REMOTE,                                   /* u8[n], out     */
    B_TASKS,                                        /* i64[n_tasks*7] */
    B_COMPLETE, B_FORWARD,                          /* i64[n], out    */
    B_GENERATION, B_PU_OF_SEQ,                      /* i64[n_tasks]   */
    B_PU_USEFUL, B_PU_OCCUPIED,                     /* i64[n_pus]     */
    N_BUFS
};

/* Per-task columns of B_TASKS: trace span, start pc of the task's
 * root, actual target index and kind, and the interned ids of the
 * next task's root and (CALL tasks) the return continuation; -1 for
 * None. */
enum { T_START, T_END, T_PC, T_TARGET, T_KIND, T_NEXT_ROOT, T_CONT, T_COLS };
enum { K_NONE, K_CALL, K_RETURN, K_OTHER };

enum { POLICY_SCHEDULE, POLICY_EAGER, POLICY_LAZY };
enum { PRED_PATH, PRED_GSHARE, PRED_HYBRID };

/* out[] layout, mirrored by native.py. */
enum {
    O_STATUS, O_CYCLE, O_RETIRE_SEQ, O_NEXT_SEQ, O_NEXT_ASSIGN_PU,
    O_RESUME_CYCLE, O_PENDING, O_PREDICTIONS, O_MISPREDICTIONS,
    O_CONTROL_SQUASHES, O_MEMORY_SQUASHES, O_CONTROL_MISSPEC,
    O_MEMORY_MISSPEC, O_IDLE, O_SPAN, O_ACTIVE_SPAN, O_RETIRE_FINISH,
    O_REASONS, /* N_REASONS slots */
    O_CACHE = O_REASONS + N_REASONS, /* l1d, l1i, l2: hits, misses */
    O_PRED = O_CACHE + 6,            /* predictions, mispredictions,
                                        history; then the path and
                                        gshare components of hybrid */
    O_RAS_OVERFLOWS = O_PRED + 9,
    O_N_EVENTS, O_N_DEPTHS, O_N_SYNC, O_N_RAS,
    O_COUNTERS, /* N_COUNTERS slots */
};

/* Scan counters, from out[O_COUNTERS] on, mirrored by native.py: PU
 * visits by state (wrong-path, idle, retiring, done, active), then the
 * issue scans run, those that issued nothing, the visits that skipped
 * a scan asleep and the window entries the scans examined. */
enum {
    C_WRONG_PATH, C_IDLE, C_RETIRING, C_DONE, C_ACTIVE,
    C_SCANS, C_FRUITLESS, C_SKIPPED, C_EXAMINED, N_COUNTERS
};
#define N_OUT (O_COUNTERS + N_COUNTERS)

/* Lifecycle record kinds.  A record is EV_WORDS int64 words: the kind,
 * then its fields, zero-padded (DESIGN.md §10).  An ARB violation's
 * `injected` field is 0 here: only _tick runs a fault plan. */
enum {
    EV_ASSIGN, EV_WRONG_ASSIGN, EV_TASK_MISPREDICT, EV_BRANCH_MISPREDICT,
    EV_ARB_VIOLATION, EV_SQUASH, EV_WRONG_SQUASH, EV_COMMIT, EV_RETIRE
};
#define EV_WORDS 7

enum { COPY_EVENTS, COPY_DEPTHS, COPY_SYNC, COPY_RAS };

/* ------------------------------------------------------------ helpers */

static i64 py_mod(i64 a, i64 b)
{
    i64 r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

static i64 py_div(i64 a, i64 b)
{
    i64 q = a / b;
    return ((a % b) != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

/* A growable int64 vector; `*failed` latches allocation failure. */
typedef struct {
    i64 *v;
    i64 len, cap;
} Vec;

static void vec_push(Vec *vec, i64 x, int *failed)
{
    if (vec->len == vec->cap) {
        i64 cap = vec->cap ? vec->cap * 2 : 256;
        i64 *v = realloc(vec->v, (size_t)cap * sizeof(i64));
        if (!v) {
            *failed = 1;
            return;
        }
        vec->v = v;
        vec->cap = cap;
    }
    vec->v[vec->len++] = x;
}

/* ------------------------------------------------------------- caches */

/* One set-associative LRU level.  Sets are kept sparsely, hashed by
 * set index (as memory.Cache keeps a dict): a run touches a few
 * hundred of an L2's 64K sets. */
typedef struct {
    i64 n_sets;
    int assoc;
    i64 *keys;   /* set index per slot, -1 empty */
    i64 *ways;   /* slot * assoc line addresses, LRU first */
    i32 *fill;   /* ways in use per slot */
    i64 n_slots, n_used;
    i64 hits, misses;
} Cache;

static int cache_alloc(Cache *c, i64 n_slots)
{
    c->keys = malloc((size_t)n_slots * sizeof(i64));
    c->ways = malloc((size_t)(n_slots * c->assoc) * sizeof(i64));
    c->fill = calloc((size_t)n_slots, sizeof(i32));
    if (!c->keys || !c->ways || !c->fill)
        return 0;
    memset(c->keys, 0xff, (size_t)n_slots * sizeof(i64));
    c->n_slots = n_slots;
    return 1;
}

static int cache_init(Cache *c, i64 n_sets, i64 assoc)
{
    c->n_sets = n_sets;
    c->assoc = (int)assoc;
    c->n_used = c->hits = c->misses = 0;
    return cache_alloc(c, 64);
}

static i64 cache_probe(const Cache *c, i64 set)
{
    uint64_t mask = (uint64_t)c->n_slots - 1;
    uint64_t slot = ((uint64_t)set * 0x9E3779B97F4A7C15ull >> 17) & mask;
    while (c->keys[slot] >= 0 && c->keys[slot] != set)
        slot = (slot + 1) & mask;
    return (i64)slot;
}

/* The slot of `set`, claimed (empty) if the set is untouched. */
static i64 cache_slot(Cache *c, i64 set, int *failed)
{
    i64 slot = cache_probe(c, set);
    if (c->keys[slot] == set)
        return slot;
    if ((c->n_used + 1) * 2 > c->n_slots) {
        Cache old = *c;
        if (!cache_alloc(c, old.n_slots * 2)) {
            *failed = 1;
            *c = old;
            return slot;
        }
        for (i64 k = 0; k < old.n_slots; k++) {
            if (old.keys[k] < 0)
                continue;
            i64 to = cache_probe(c, old.keys[k]);
            c->keys[to] = old.keys[k];
            c->fill[to] = old.fill[k];
            memcpy(c->ways + to * c->assoc, old.ways + k * c->assoc,
                   (size_t)c->assoc * sizeof(i64));
        }
        free(old.keys);
        free(old.ways);
        free(old.fill);
        slot = cache_probe(c, set);
    }
    c->keys[slot] = set;
    c->n_used++;
    return slot;
}

/* Touch `line`; 1 on hit.  Same LRU list discipline as memory.Cache. */
static int cache_access(Cache *c, i64 line, int *failed)
{
    i64 slot = cache_slot(c, py_mod(line, c->n_sets), failed);
    i64 *w = c->ways + slot * c->assoc;
    int n = c->fill[slot];
    for (int i = 0; i < n; i++) {
        if (w[i] == line) {
            if (i != n - 1) {
                memmove(w + i, w + i + 1, (size_t)(n - 1 - i) * sizeof(i64));
                w[n - 1] = line;
            }
            c->hits++;
            return 1;
        }
    }
    c->misses++;
    if (n < c->assoc) {
        w[n] = line;
        c->fill[slot] = n + 1;
    } else {
        memmove(w, w + 1, (size_t)(c->assoc - 1) * sizeof(i64));
        w[c->assoc - 1] = line;
    }
    return 0;
}

/* ---------------------------------------------------------- sync table */

typedef struct {
    i64 store_pc, load_pc, stamp;
    int present;
} SyncEntry;

/* Every pair ever learned, hashed by key; `present` pairs form the
 * LRU table (largest stamp = most recently touched). */
typedef struct {
    SyncEntry *entries;
    i64 n_entries, cap_entries;
    i32 *slots;  /* open addressing into entries, -1 empty */
    i64 n_slots;
    i64 clock, n_present, capacity;
} SyncTable;

static uint64_t pair_hash(i64 a, i64 b)
{
    uint64_t h = (uint64_t)a * 0x9E3779B97F4A7C15ull;
    h ^= (uint64_t)b + 0x632BE59BD9B4E019ull + (h << 6) + (h >> 2);
    h ^= h >> 29;
    return h * 0xBF58476D1CE4E5B9ull;
}

static i64 sync_find(const SyncTable *t, i64 a, i64 b)
{
    if (!t->n_entries)
        return -1;
    uint64_t mask = (uint64_t)t->n_slots - 1;
    for (uint64_t s = pair_hash(a, b) & mask;; s = (s + 1) & mask) {
        i32 e = t->slots[s];
        if (e < 0)
            return -1;
        if (t->entries[e].store_pc == a && t->entries[e].load_pc == b)
            return e;
    }
}

static void sync_slot_in(SyncTable *t, i64 e)
{
    uint64_t mask = (uint64_t)t->n_slots - 1;
    uint64_t s = pair_hash(t->entries[e].store_pc, t->entries[e].load_pc)
                 & mask;
    while (t->slots[s] >= 0)
        s = (s + 1) & mask;
    t->slots[s] = (i32)e;
}

/* machine.is_synchronised: a hit moves the pair to the MRU end. */
static int sync_touch(SyncTable *t, i64 a, i64 b)
{
    i64 e = sync_find(t, a, b);
    if (e < 0 || !t->entries[e].present)
        return 0;
    t->entries[e].stamp = ++t->clock;
    return 1;
}

/* machine._learn_sync: insert or refresh, then evict LRU overflow. */
static void sync_learn(SyncTable *t, i64 a, i64 b, int *failed)
{
    if (t->capacity <= 0)
        return;
    i64 e = sync_find(t, a, b);
    if (e < 0) {
        if (t->n_entries == t->cap_entries) {
            i64 cap = t->cap_entries ? t->cap_entries * 2 : 64;
            SyncEntry *entries = realloc(t->entries,
                                         (size_t)cap * sizeof(SyncEntry));
            if (!entries) {
                *failed = 1;
                return;
            }
            t->entries = entries;
            t->cap_entries = cap;
        }
        if ((t->n_entries + 1) * 2 > t->n_slots) {
            i64 n_slots = t->n_slots ? t->n_slots * 2 : 128;
            i32 *slots = malloc((size_t)n_slots * sizeof(i32));
            if (!slots) {
                *failed = 1;
                return;
            }
            free(t->slots);
            t->slots = slots;
            t->n_slots = n_slots;
            memset(slots, 0xff, (size_t)n_slots * sizeof(i32));
            for (i64 k = 0; k < t->n_entries; k++)
                sync_slot_in(t, k);
        }
        e = t->n_entries++;
        t->entries[e].store_pc = a;
        t->entries[e].load_pc = b;
        t->entries[e].present = 0;
        sync_slot_in(t, e);
    }
    if (!t->entries[e].present) {
        t->entries[e].present = 1;
        t->n_present++;
    }
    t->entries[e].stamp = ++t->clock;
    while (t->n_present > t->capacity) {
        i64 oldest = -1;
        for (i64 k = 0; k < t->n_entries; k++)
            if (t->entries[k].present
                && (oldest < 0
                    || t->entries[k].stamp < t->entries[oldest].stamp))
                oldest = k;
        t->entries[oldest].present = 0;
        t->n_present--;
    }
}

/* ---------------------------------------------------------- predictors */

#define TABLE (1 << 16)
#define TABLE_MASK (TABLE - 1)
#define MAX_TARGETS 4

typedef struct {
    u8 *counters, *targets;
    i64 history, predictions, mispredictions;
} TargetTable;

static int table_init(TargetTable *t)
{
    t->counters = calloc(TABLE, 1);
    t->targets = calloc(TABLE, 1);
    t->history = t->predictions = t->mispredictions = 0;
    return t->counters && t->targets;
}

/* The shared counter/target training of PathPredictor.update and
 * GshareTaskPredictor.update; 1 on mispredict. */
static int table_train(TargetTable *t, i64 idx, i64 actual)
{
    int representable = actual < MAX_TARGETS;
    int correct = representable && t->targets[idx] == actual;
    if (correct) {
        if (t->counters[idx] < 3)
            t->counters[idx]++;
    } else if (t->counters[idx] > 0) {
        t->counters[idx]--;
    } else if (representable) {
        t->targets[idx] = (u8)actual;
    }
    t->predictions++;
    if (!correct)
        t->mispredictions++;
    return !correct;
}

static int path_update(TargetTable *t, i64 pc, i64 actual)
{
    return table_train(t, (pc ^ t->history) & TABLE_MASK, actual);
}

static void path_push(TargetTable *t, i64 pc)
{
    t->history = ((t->history << 3) ^ pc) & TABLE_MASK;
}

static int gshare_update(TargetTable *t, i64 pc, i64 actual)
{
    int mispredicted = table_train(t, (pc ^ t->history) & TABLE_MASK,
                                   actual);
    t->history = ((t->history << 2) | (actual & (MAX_TARGETS - 1)))
                 & TABLE_MASK;
    return mispredicted;
}

typedef struct {
    int kind;
    TargetTable path, gshare;
    u8 *choosers;
    i64 predictions, mispredictions;
} TaskPredictor;

static int predictor_update(TaskPredictor *p, i64 pc, i64 actual)
{
    if (p->kind == PRED_PATH)
        return path_update(&p->path, pc, actual);
    if (p->kind == PRED_GSHARE)
        return gshare_update(&p->gshare, pc, actual);
    i64 path_pred = p->path.targets[(pc ^ p->path.history) & TABLE_MASK];
    i64 gshare_pred =
        p->gshare.targets[(pc ^ p->gshare.history) & TABLE_MASK];
    i64 chooser = pc & TABLE_MASK;
    int use_gshare = p->choosers[chooser] >= 2;
    int representable = actual < MAX_TARGETS;
    int correct =
        representable && (use_gshare ? gshare_pred : path_pred) == actual;
    int path_right = representable && path_pred == actual;
    int gshare_right = representable && gshare_pred == actual;
    if (path_right != gshare_right) {
        if (gshare_right) {
            if (p->choosers[chooser] < 3)
                p->choosers[chooser]++;
        } else if (p->choosers[chooser] > 0) {
            p->choosers[chooser]--;
        }
    }
    path_update(&p->path, pc, actual);
    gshare_update(&p->gshare, pc, actual);
    p->predictions++;
    if (!correct)
        p->mispredictions++;
    return !correct;
}

static void predictor_push(TaskPredictor *p, i64 pc)
{
    if (p->kind != PRED_GSHARE)
        path_push(&p->path, pc);
}

#define RAS_DEPTH 64

/* ------------------------------------------------------------- the PU */

typedef struct {
    i64 c;
    i32 idx;
} Completion;

typedef struct {
    int index;
    int issue_width, fetch_width;
    int fu[4], lat_extra[4];
    int seq;  /* dynamic task held, -1 when idle or wrong-path */
    int wrong, done, retiring;
    i64 assign_cycle, fetch_resume, done_cycle, first_issue;
    i64 fetch_ptr, fetch_end;
    i64 pending_branch;
    int rob_count, remaining, arb_used;
    i32 *win_idx;  /* unissued window: trace indices, program order */
    int n_win;
    Completion *heap;  /* in-flight completions, min-heap on (c, idx) */
    int n_heap;
    /* asleep while cycle < wake: the last scan issued nothing and
     * charged sleep_reason (see issue) */
    i64 wake;
    int sleep_reason;
    i64 counts[N_REASONS];
    /* ring egress: reservations per cycle from egress_base on */
    i32 *egress;
    i64 egress_base, egress_len, egress_cap;
} PU;

/* ------------------------------------------------------------ machine */

typedef struct {
    i64 n, n_tasks;
    int n_pus, ooo, rob_size, issue_list_size;
    i64 task_start_overhead, task_end_overhead, branch_penalty, redirect;
    int ring_bw;
    i64 hop_latency, release_lag;
    int policy;
    i64 arb_latency, arb_entries, stlf_latency;
    i64 l1d_hit, l1d_wpl, l1i_hit, l1i_wpl, l2_hit, mem_latency;
    int trace;

    const u8 *opcls, *is_load, *is_store, *is_mem, *is_cond_branch,
        *block_start, *has_write, *gshare_mispred,
        *release_now;  /* release_now: SCHEDULE policy only */
    u8 *has_remote;
    const i64 *pc, *addr;
    const i32 *latency, *mem_producer, *prod_off, *prod;
    const i64 *tasks;
    i64 *complete, *forward, *generation, *pu_of_seq;
    i64 *pu_useful, *pu_occupied;
    i32 *task_seq;
    i32 *rev_off, *rev;  /* CSR: per producer, the later tasks reading it */

    PU *pus;
    i64 retire_seq, next_seq, resume_cycle, pending;
    int next_assign_pu, retiring;  /* retiring: PU index or -1 */
    i64 retire_finish, active_span, span_accum, idle_accum;
    i64 reason_accum[N_REASONS];
    i64 predictions, mispredictions, control_squashes, memory_squashes;
    i64 control_misspec, memory_misspec;
    i64 counters[N_COUNTERS];

    Cache l1d, l1i, l2;
    SyncTable sync;
    TaskPredictor pred;
    i64 ras[RAS_DEPTH];
    int ras_len;
    i64 ras_overflows;

    /* speculative loads awaiting their producer store */
    i32 *viol_head;  /* per store index, -1 none; newest first */
    i32 *viol_load, *viol_seq, *viol_next;
    i64 *viol_gen;
    i64 n_viol, cap_viol;
    i32 viol_free;

    i32 *stores;      /* scratch: stores drained this visit */
    int *issued_pos;  /* scratch: window positions issued this scan */

    Vec events, depths;
    int failed;  /* an allocation failed: the run is void */
} Machine;

#define TASK(m, seq, col) ((m)->tasks[(seq) * T_COLS + (col)])

static void event(Machine *m, i64 kind, i64 a, i64 b, i64 c, i64 d, i64 e,
                  i64 f)
{
    i64 words[EV_WORDS] = {kind, a, b, c, d, e, f};
    for (int k = 0; k < EV_WORDS; k++)
        vec_push(&m->events, words[k], &m->failed);
}

/* The PU holding in-flight task `seq`, or NULL. */
static PU *in_flight(Machine *m, i64 seq)
{
    i64 index = m->pu_of_seq[seq];
    if (index < 0 || m->pus[index].seq != seq)
        return NULL;
    return &m->pus[index];
}

static void reset_idle(PU *pu)
{
    pu->seq = -1;
    pu->wrong = pu->done = pu->retiring = 0;
    pu->assign_cycle = -1;
    pu->fetch_ptr = pu->fetch_end = 0;
    pu->fetch_resume = 0;
    pu->pending_branch = -1;
    pu->rob_count = pu->remaining = pu->arb_used = 0;
    pu->n_win = pu->n_heap = 0;
    pu->done_cycle = pu->first_issue = -1;
    pu->wake = 0;
    memset(pu->counts, 0, sizeof(pu->counts));
}

static void heap_push(PU *pu, i64 c, i32 idx)
{
    Completion *h = pu->heap;
    int i = pu->n_heap++;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (h[parent].c < c || (h[parent].c == c && h[parent].idx < idx))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i].c = c;
    h[i].idx = idx;
}

static i32 heap_pop(PU *pu)
{
    Completion *h = pu->heap;
    i32 top = h[0].idx;
    Completion last = h[--pu->n_heap];
    int n = pu->n_heap, i = 0;
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n
            && (h[child + 1].c < h[child].c
                || (h[child + 1].c == h[child].c
                    && h[child + 1].idx < h[child].idx)))
            child++;
        if (last.c < h[child].c
            || (last.c == h[child].c && last.idx < h[child].idx))
            break;
        h[i] = h[child];
        i = child;
    }
    if (n)
        h[i] = last;
    return top;
}

/* ProcessingUnit.machine_ring_slot: the first cycle at or after
 * `earliest` with egress bandwidth left, reserved.  Cycles before
 * `keep_from` are never asked for again and are dropped. */
static i64 ring_slot(Machine *m, PU *pu, i64 earliest, i64 keep_from)
{
    if (keep_from > pu->egress_base) {
        i64 shift = keep_from - pu->egress_base;
        if (shift >= pu->egress_len) {
            pu->egress_len = 0;
        } else {
            memmove(pu->egress, pu->egress + shift,
                    (size_t)(pu->egress_len - shift) * sizeof(i32));
            pu->egress_len -= shift;
        }
        pu->egress_base = keep_from;
    }
    i64 c = earliest;
    while (c - pu->egress_base < pu->egress_len
           && pu->egress[c - pu->egress_base] >= m->ring_bw)
        c++;
    i64 off = c - pu->egress_base;
    if (off >= pu->egress_cap) {
        i64 cap = pu->egress_cap ? pu->egress_cap : 64;
        while (cap <= off)
            cap *= 2;
        i32 *egress = realloc(pu->egress, (size_t)cap * sizeof(i32));
        if (!egress) {
            m->failed = 1;
            return c;
        }
        pu->egress = egress;
        pu->egress_cap = cap;
    }
    if (off >= pu->egress_len) {
        memset(pu->egress + pu->egress_len, 0,
               (size_t)(off + 1 - pu->egress_len) * sizeof(i32));
        pu->egress_len = off + 1;
    }
    pu->egress[off]++;
    return c;
}

static void schedule_forward(Machine *m, PU *pu, i64 idx, i64 earliest,
                             i64 cycle)
{
    if (m->forward[idx] >= 0)
        return;
    if (m->has_remote[idx]) {
        i64 keep_from = cycle + (m->release_lag < 0 ? m->release_lag : 0);
        m->forward[idx] = ring_slot(m, pu, earliest, keep_from);
        /* Wake the in-flight readers: a scan may sleep on a forward
         * it has not seen scheduled.  Tasks from next_seq on are not
         * in flight. */
        for (i32 k = m->rev_off[idx]; k < m->rev_off[idx + 1]; k++) {
            if (m->rev[k] >= m->next_seq)
                break;
            PU *reader = in_flight(m, m->rev[k]);
            if (reader)
                reader->wake = 0;
        }
    } else {
        m->forward[idx] = earliest;
    }
}

static void forward_all_writes(Machine *m, PU *pu, i64 cycle)
{
    i64 end = TASK(m, pu->seq, T_END);
    for (i64 i = TASK(m, pu->seq, T_START); i < end; i++)
        if (m->has_write[i] && m->forward[i] < 0)
            schedule_forward(m, pu, i, cycle, cycle);
}

static i64 data_access(Machine *m, i64 word_addr)
{
    i64 line = py_div(word_addr, m->l1d_wpl);
    if (cache_access(&m->l1d, line, &m->failed))
        return m->l1d_hit;
    if (cache_access(&m->l2, line, &m->failed))
        return m->l1d_hit + m->l2_hit;
    return m->l1d_hit + m->l2_hit + m->mem_latency;
}

static i64 inst_access(Machine *m, i64 pc)
{
    i64 line = py_div(pc, m->l1i_wpl);
    if (cache_access(&m->l1i, line, &m->failed))
        return m->l1i_hit;
    if (cache_access(&m->l2, line, &m->failed))
        return m->l1i_hit + m->l2_hit;
    return m->l1i_hit + m->l2_hit + m->mem_latency;
}

/* ProcessingUnit.drain_completions; returns the completed stores. */
static int drain(Machine *m, PU *pu, i64 cycle)
{
    int n_stores = 0;
    while (pu->n_heap && pu->heap[0].c <= cycle) {
        i32 idx = heap_pop(pu);
        m->complete[idx] = cycle;
        pu->remaining--;
        pu->rob_count--;
        if (m->has_write[idx]) {
            if (m->policy == POLICY_EAGER
                || (m->policy == POLICY_SCHEDULE && m->release_now[idx]))
                schedule_forward(m, pu, idx, cycle, cycle);
            else if (m->policy == POLICY_SCHEDULE)
                schedule_forward(m, pu, idx, cycle + m->release_lag, cycle);
        }
        if (m->is_store[idx])
            m->stores[n_stores++] = idx;
        if (idx == pu->pending_branch) {
            pu->pending_branch = -1;
            pu->fetch_resume = cycle + m->branch_penalty;
        }
    }
    if (!pu->done && pu->seq >= 0 && pu->remaining == 0
        && pu->fetch_ptr >= TASK(m, pu->seq, T_END)) {
        pu->done = 1;
        pu->done_cycle = cycle;
        if (m->policy == POLICY_LAZY)
            forward_all_writes(m, pu, cycle);
    }
    return n_stores;
}

/* ------------------------------------------------------------- squash */

static void clear_span(Machine *m, i64 seq)
{
    i64 end = TASK(m, seq, T_END);
    for (i64 i = TASK(m, seq, T_START); i < end; i++)
        m->complete[i] = m->forward[i] = -1;
    m->generation[seq]++;
}

static void squash_wrong(Machine *m, i64 cycle)
{
    for (int i = 0; i < m->n_pus; i++) {
        PU *pu = &m->pus[i];
        if (!pu->wrong)
            continue;
        i64 penalty = cycle - pu->assign_cycle;
        if (penalty < 0)
            penalty = 0;
        m->control_misspec += penalty;
        if (m->trace)
            event(m, EV_WRONG_SQUASH, i, cycle, penalty, 0, 0, 0);
        reset_idle(pu);
    }
}

static void squash_from(Machine *m, i64 first_seq, i64 cycle, int memory)
{
    /* In-flight tasks are exactly [retire_seq, next_seq). */
    i64 lo = first_seq > m->retire_seq ? first_seq : m->retire_seq;
    i64 n_victims = 0;
    for (i64 seq = lo; seq < m->next_seq; seq++)
        if (in_flight(m, seq))
            n_victims++;
    if (n_victims)
        vec_push(&m->depths, n_victims, &m->failed);
    if (m->retiring >= 0 && m->pus[m->retiring].seq >= first_seq)
        m->retiring = -1;
    for (i64 seq = lo; seq < m->next_seq; seq++) {
        PU *pu = in_flight(m, seq);
        if (!pu)
            continue;
        i64 penalty = cycle - pu->assign_cycle;
        if (penalty < 0)
            penalty = 0;
        if (memory)
            m->memory_misspec += penalty;
        else
            m->control_misspec += penalty;
        if (m->trace)
            event(m, EV_SQUASH, seq, pu->index, cycle, penalty, memory,
                  pu->first_issue);
        m->active_span -= TASK(m, seq, T_END) - TASK(m, seq, T_START);
        clear_span(m, seq);
        reset_idle(pu);
    }
    squash_wrong(m, cycle);
    if (m->pending >= 0 && m->pending >= first_seq)
        m->pending = -1;
    if (first_seq < m->next_seq)
        m->next_seq = first_seq;
    if (first_seq > 0)
        m->next_assign_pu =
            (int)((m->pu_of_seq[first_seq - 1] + 1) % m->n_pus);
    else
        m->next_assign_pu = 0;
    if (m->resume_cycle < cycle + 1)
        m->resume_cycle = cycle + 1;
}

static void register_speculative_load(Machine *m, i64 store_idx,
                                      i64 load_idx, i64 seq)
{
    i32 node = m->viol_free;
    if (node >= 0) {
        m->viol_free = m->viol_next[node];
    } else {
        if (m->n_viol == m->cap_viol) {
            i64 cap = m->cap_viol ? m->cap_viol * 2 : 256;
            i32 *load = realloc(m->viol_load, (size_t)cap * sizeof(i32));
            if (load)
                m->viol_load = load;
            i32 *vseq = realloc(m->viol_seq, (size_t)cap * sizeof(i32));
            if (vseq)
                m->viol_seq = vseq;
            i32 *next = realloc(m->viol_next, (size_t)cap * sizeof(i32));
            if (next)
                m->viol_next = next;
            i64 *gen = realloc(m->viol_gen, (size_t)cap * sizeof(i64));
            if (gen)
                m->viol_gen = gen;
            if (!load || !vseq || !next || !gen) {
                m->failed = 1;
                return;
            }
            m->cap_viol = cap;
        }
        node = (i32)m->n_viol++;
    }
    m->viol_load[node] = (i32)load_idx;
    m->viol_seq[node] = (i32)seq;
    m->viol_gen[node] = m->generation[seq];
    m->viol_next[node] = m->viol_head[store_idx];
    m->viol_head[store_idx] = node;
}

/* machine._check_store_violation.  The list is newest first, so `<=`
 * keeps the oldest registration among equal sequence numbers, as the
 * Python loop's `<` does over the oldest-first list. */
static void check_store_violation(Machine *m, i64 store_idx, i64 cycle)
{
    i32 node = m->viol_head[store_idx];
    if (node < 0)
        return;
    m->viol_head[store_idx] = -1;
    i64 victim_seq = -1, victim_load = -1;
    while (node >= 0) {
        i32 next = m->viol_next[node];
        i64 seq = m->viol_seq[node];
        if (m->generation[seq] == m->viol_gen[node]
            && seq >= m->retire_seq && in_flight(m, seq)
            && (victim_seq < 0 || seq <= victim_seq)) {
            victim_seq = seq;
            victim_load = m->viol_load[node];
        }
        m->viol_next[node] = m->viol_free;
        m->viol_free = node;
        node = next;
    }
    if (victim_seq < 0)
        return;
    m->memory_squashes++;
    if (m->trace)
        event(m, EV_ARB_VIOLATION, victim_seq, cycle, 0, 0, 0, 0);
    sync_learn(&m->sync, m->pc[store_idx], m->pc[victim_load], &m->failed);
    squash_from(m, victim_seq, cycle, 1);
}

/* ------------------------------------------------------------- assign */

static void predict_successor(Machine *m, i64 seq, i64 cycle)
{
    i64 kind = TASK(m, seq, T_KIND);
    if (kind == K_NONE)
        return;
    i64 pc = TASK(m, seq, T_PC);
    int correct = !predictor_update(&m->pred, pc, TASK(m, seq, T_TARGET));
    if (correct && kind == K_RETURN) {
        i64 top = m->ras_len ? m->ras[m->ras_len - 1] : -1;
        correct = top == TASK(m, seq, T_NEXT_ROOT);
    }
    if (kind == K_CALL) {
        if (m->ras_len >= RAS_DEPTH) {
            memmove(m->ras, m->ras + 1, (RAS_DEPTH - 1) * sizeof(i64));
            m->ras_len--;
            m->ras_overflows++;
        }
        m->ras[m->ras_len++] = TASK(m, seq, T_CONT);
    } else if (kind == K_RETURN) {
        if (m->ras_len)
            m->ras_len--;
    }
    predictor_push(&m->pred, pc);
    m->predictions++;
    if (!correct) {
        m->mispredictions++;
        m->pending = seq;
        m->control_squashes++;
        if (m->trace)
            event(m, EV_TASK_MISPREDICT, seq, cycle, 0, 0, 0, 0);
    }
}

static void assign(Machine *m, i64 cycle)
{
    PU *pu = &m->pus[m->next_assign_pu];
    if (m->pending >= 0) {
        reset_idle(pu);
        pu->wrong = 1;
        pu->assign_cycle = cycle;
        if (m->trace)
            event(m, EV_WRONG_ASSIGN, pu->index, cycle, 0, 0, 0, 0);
        m->next_assign_pu = (m->next_assign_pu + 1) % m->n_pus;
        return;
    }
    if (m->next_seq >= m->n_tasks)
        return;
    i64 seq = m->next_seq;
    i64 start = TASK(m, seq, T_START), end = TASK(m, seq, T_END);
    reset_idle(pu);
    pu->seq = (int)seq;
    pu->assign_cycle = cycle;
    pu->fetch_ptr = start;
    pu->fetch_end = end;
    pu->fetch_resume = cycle + m->task_start_overhead;
    pu->remaining = (int)(end - start);
    m->pu_of_seq[seq] = pu->index;
    if (m->trace)
        event(m, EV_ASSIGN, seq, pu->index, cycle, 0, 0, 0);
    m->active_span += end - start;
    m->next_seq++;
    m->next_assign_pu = (m->next_assign_pu + 1) % m->n_pus;
    predict_successor(m, seq, cycle);
}

/* ------------------------------------------------------------- retire */

static void retire(Machine *m, i64 cycle)
{
    if (m->retiring >= 0) {
        if (cycle < m->retire_finish)
            return;
        PU *pu = &m->pus[m->retiring];
        i64 occupied = 0;
        for (int r = 0; r < N_REASONS; r++) {
            m->reason_accum[r] += pu->counts[r];
            occupied += pu->counts[r];
        }
        m->pu_useful[pu->index] += pu->counts[R_USEFUL];
        m->pu_occupied[pu->index] += occupied;
        i64 seq = pu->seq;
        m->active_span -= TASK(m, seq, T_END) - TASK(m, seq, T_START);
        if (m->trace)
            event(m, EV_RETIRE, seq, pu->index, cycle, pu->first_issue,
                  pu->done_cycle, 0);
        reset_idle(pu);
        m->retire_seq++;
        m->retiring = -1;
        /* The new head issues what a speculative task may not. */
        PU *head = m->retire_seq < m->n_tasks
                       ? in_flight(m, m->retire_seq) : NULL;
        if (head)
            head->wake = 0;
    }
    if (m->retire_seq >= m->n_tasks)
        return;
    PU *pu = in_flight(m, m->retire_seq);
    if (pu && pu->done) {
        pu->counts[R_TASK_END] += m->task_end_overhead;
        pu->retiring = 1;
        m->retiring = pu->index;
        m->retire_finish = cycle + m->task_end_overhead;
        if (m->trace)
            event(m, EV_COMMIT, pu->seq, pu->index, cycle, 0, 0, 0);
    }
}

/* -------------------------------------------------------------- issue */

/* ProcessingUnit.issue: issue ready window entries; returns the count
 * issued and, when none, the stall slot of the oldest blocked entry
 * (-1: nothing to report).
 *
 * A scan that issues nothing changes no state, unless it touched the
 * sync table (each touch re-stamps the pair's LRU entry), and its
 * outcome is a function of the window, the ARB count, whether the task
 * is the head, and the complete / forward cycles of the producers it
 * reads.  So the PU sleeps: until `wake` the scan would issue nothing
 * and charge the same reason.  `wake` is the earliest cycle a blocked
 * entry it examined can pass: a known forward's arrival, and the top of
 * the completion heap (an own-task producer or store completes there,
 * or later).  What no cycle bounds wakes the PU through a hook: a
 * forward being scheduled (schedule_forward), the task becoming the
 * head (retire), a fetch and reset_idle. */
static int issue(Machine *m, PU *pu, i64 cycle, int *reason_out)
{
    int budget[4] = {pu->fu[0], pu->fu[1], pu->fu[2], pu->fu[3]};
    int first_block = -1;
    int limit = pu->n_win;
    if (m->ooo && limit > m->issue_list_size)
        limit = m->issue_list_size;
    i64 seq = pu->seq;
    int at_head = seq == m->retire_seq;
    int issued = 0, seen_mem = 0, touched_sync = 0;
    i64 wake = NEVER;
    const i32 *task_seq = m->task_seq;
    const i64 *complete = m->complete;

    int pos;
    for (pos = 0; pos < limit; pos++) {
        if (issued >= pu->issue_width)
            break;
        i32 idx = pu->win_idx[pos];
        int reason = -1;
        for (i32 k = m->prod_off[idx]; k < m->prod_off[idx + 1]; k++) {
            i32 p = m->prod[k];
            i64 pseq = task_seq[p];
            if (pseq == seq) {
                i64 done = complete[p];
                if (done < 0 || done > cycle) {
                    reason = R_INTRA_DEP;
                    break;
                }
            } else {
                i64 fwd = m->forward[p];
                if (fwd < 0) {
                    reason = R_INTER_COMM;
                    break;
                }
                i64 prod_pu = m->pu_of_seq[pseq];
                i64 hops = prod_pu >= 0
                               ? py_mod(pu->index - prod_pu, m->n_pus)
                               : 1;
                if (hops > 1)
                    fwd += (hops - 1) * m->hop_latency;
                if (fwd > cycle) {
                    reason = R_INTER_COMM;
                    if (fwd < wake)
                        wake = fwd;
                    break;
                }
            }
        }
        if (m->is_mem[idx]) {
            /* Memory ops issue in program order: only the oldest
             * unissued one of the window (the first one the scan
             * meets) may pass, at most once per cycle. */
            int oldest = !seen_mem;
            seen_mem = 1;
            if (reason < 0 && !oldest)
                reason = R_MEMORY;
            if (reason < 0 && m->arb_entries > 0
                && pu->arb_used >= m->arb_entries && !at_head)
                reason = R_MEMORY;
            if (reason < 0 && m->is_load[idx]) {
                i32 p = m->mem_producer[idx];
                if (p >= 0) {
                    if (task_seq[p] == seq) {
                        i64 done = complete[p];
                        if (done < 0 || done > cycle)
                            reason = R_MEMORY;
                    } else if (complete[p] < 0 || complete[p] > cycle) {
                        touched_sync = 1;
                        if (sync_touch(&m->sync, m->pc[p], m->pc[idx])
                            && !at_head)
                            reason = R_SYNC_WAIT;
                    }
                }
            }
        }
        if (reason >= 0) {
            if (first_block < 0)
                first_block = reason;
            if (!m->ooo)
                break;
            continue;
        }
        int cls = m->opcls[idx];
        if (budget[cls] <= 0) {
            if (first_block < 0)
                first_block = R_USEFUL;
            if (!m->ooo)
                break;
            continue;
        }
        budget[cls]--;
        i64 latency;
        if (m->is_load[idx]) {
            i32 p = m->mem_producer[idx];
            if (p >= 0 && task_seq[p] == seq) {
                latency = m->stlf_latency;
            } else if (p >= 0 && complete[p] >= 0) {
                latency = m->arb_latency;
            } else {
                if (p >= 0)
                    register_speculative_load(m, p, idx, seq);
                latency = data_access(m, m->addr[idx]);
                if (latency < m->arb_latency)
                    latency = m->arb_latency;
            }
        } else {
            latency = m->latency[idx];
        }
        heap_push(pu, cycle + latency + pu->lat_extra[cls], idx);
        m->issued_pos[issued++] = pos;
        if (m->is_mem[idx] && !at_head)
            pu->arb_used++;
    }
    /* The entry a break stopped at was examined; a width break's not. */
    m->counters[C_SCANS]++;
    m->counters[C_EXAMINED] +=
        pos + (pos < limit && issued < pu->issue_width);
    if (issued) {
        if (pu->first_issue < 0)
            pu->first_issue = cycle;
        int keep = 0, next = 0;
        for (int pos = 0; pos < pu->n_win; pos++) {
            if (next < issued && m->issued_pos[next] == pos) {
                next++;
                continue;
            }
            pu->win_idx[keep++] = pu->win_idx[pos];
        }
        pu->n_win = keep;
        *reason_out = -1;
        return issued;
    }
    m->counters[C_FRUITLESS]++;
    if (!touched_sync) {
        if (pu->n_heap && pu->heap[0].c < wake)
            wake = pu->heap[0].c;
        pu->wake = wake;
        pu->sleep_reason = first_block;
    }
    *reason_out = first_block;
    return 0;
}

/* -------------------------------------------------------------- fetch */

static void fetch(Machine *m, PU *pu, i64 cycle)
{
    i64 end = TASK(m, pu->seq, T_END);
    int fetched = 0;
    while (fetched < pu->fetch_width && pu->fetch_ptr < end
           && pu->rob_count < m->rob_size) {
        i64 idx = pu->fetch_ptr;
        if (m->block_start[idx]) {
            i64 latency = inst_access(m, m->pc[idx]);
            if (latency > m->l1i_hit)
                pu->fetch_resume = cycle + (latency - m->l1i_hit);
        }
        pu->rob_count++;
        pu->win_idx[pu->n_win++] = (i32)idx;
        pu->fetch_ptr = idx + 1;
        fetched++;
        if (m->is_cond_branch[idx] && m->gshare_mispred[idx]) {
            /* Wrong-path fetch: stall until the branch resolves. */
            pu->pending_branch = idx;
            pu->fetch_resume = NEVER;
            if (m->trace)
                event(m, EV_BRANCH_MISPREDICT, pu->seq, idx, pu->index,
                      cycle, 0, 0);
            break;
        }
        if (pu->fetch_resume > cycle)
            break;
    }
    pu->wake = 0;  /* a sleeping scan has not seen the new entries */
}

/* --------------------------------------------------------------- tick */

static void tick(Machine *m, i64 cycle)
{
    PU *pus = m->pus;
    int n_pus = m->n_pus;
    /* Phase A: completions (+ violation checks, + control resolve). */
    for (int i = 0; i < n_pus; i++) {
        PU *pu = &pus[i];
        if (pu->seq < 0)
            continue;
        if (pu->n_heap) {
            if (pu->heap[0].c > cycle)
                continue;
        } else if (pu->done || pu->remaining
                   || pu->fetch_ptr < pu->fetch_end) {
            continue;
        }
        int n_stores = drain(m, pu, cycle);
        for (int s = 0; s < n_stores; s++)
            check_store_violation(m, m->stores[s], cycle);
    }
    if (m->pending >= 0) {
        PU *src = in_flight(m, m->pending);
        if (src && src->done) {
            squash_wrong(m, cycle);
            m->next_assign_pu =
                (int)((m->pu_of_seq[m->pending] + 1) % n_pus);
            m->pending = -1;
            if (m->resume_cycle < cycle + m->redirect)
                m->resume_cycle = cycle + m->redirect;
        }
    }
    /* Phase B: retire. */
    if (m->retiring >= 0) {
        retire(m, cycle);
    } else {
        PU *head = in_flight(m, m->retire_seq);
        if (head && head->done)
            retire(m, cycle);
    }
    /* Phase C: assign. */
    if (cycle >= m->resume_cycle) {
        PU *next = &pus[m->next_assign_pu];
        if (next->seq < 0 && !next->wrong)
            assign(m, cycle);
    }
    /* Phase D: execute + accounting. */
    i64 idle = 0, wrong = 0, retiring = 0, done = 0, skipped = 0;
    for (int i = 0; i < n_pus; i++) {
        PU *pu = &pus[i];
        if (pu->wrong) {
            wrong++;
            continue; /* charged as penalty at resolution */
        }
        if (pu->seq < 0) {
            idle++;
            continue;
        }
        if (pu->retiring) {
            retiring++;
            continue; /* TASK_END charged up front */
        }
        if (pu->done) {
            done++;
            pu->counts[R_LOAD_IMBALANCE]++;
            continue;
        }
        /* Issue before fetch: an instruction fetched this cycle issues
         * the next cycle at the earliest. */
        int reason = -1, issued = 0;
        if (pu->n_win) {
            if (cycle < pu->wake) {
                reason = pu->sleep_reason;
                skipped++;
            } else {
                issued = issue(m, pu, cycle, &reason);
            }
        }
        if (pu->pending_branch < 0 && cycle >= pu->fetch_resume
            && pu->fetch_ptr < pu->fetch_end && pu->rob_count < m->rob_size)
            fetch(m, pu, cycle);
        if (issued)
            pu->counts[R_USEFUL]++;
        else if (cycle < pu->assign_cycle + m->task_start_overhead)
            pu->counts[R_TASK_START]++;
        else if (reason >= 0)
            pu->counts[reason]++;
        else
            pu->counts[R_FETCH]++;
    }
    m->idle_accum += idle;
    m->span_accum += m->active_span;
    m->counters[C_WRONG_PATH] += wrong;
    m->counters[C_IDLE] += idle;
    m->counters[C_RETIRING] += retiring;
    m->counters[C_DONE] += done;
    m->counters[C_ACTIVE] += n_pus - wrong - idle - retiring - done;
    m->counters[C_SKIPPED] += skipped;
}

/* ------------------------------------------------------ interpretation */

/* iparams[] layout (int64), mirrored by native.py. */
enum { IP_N_BLOCKS, IP_N_REGS, IP_N_MEMORY, IP_ENTRY, IP_LIMIT, N_IPARAMS };

/* ibufs[] layout, mirrored by native.py: the program's static encoding,
 * indexed by pc, by block id (blocks in layout order) and by register
 * id, then its initial memory image. */
enum {
    IB_OP, IB_IMM_KIND,             /* u8[n_pcs]                          */
    IB_WRITE, IB_SRC0, IB_SRC1,     /* i32[n_pcs]: register or -1         */
    IB_TARGET,                      /* i32[n_pcs]: branch, jump or callee
                                       entry block                        */
    IB_IMM,                         /* i64[n_pcs]: int value or double bits */
    IB_BLOCK_PC,                    /* i64[n_blocks]: pc of the first inst */
    IB_BLOCK_LEN, IB_BLOCK_FALL,    /* i32[n_blocks]; fallthrough or -1   */
    IB_REG_FP,                      /* u8[n_regs]: 1 for an fp register   */
    IB_MEM_ADDR, IB_MEM_BITS,       /* i64[n_memory]                      */
    IB_MEM_FP,                      /* u8[n_memory]: 1 for a float value  */
    N_IBUFS
};

/* Interpreter opcodes, mirrored by native.py.  OP_BAD marks an
 * instruction the encoder cannot express (a missing operand, an
 * immediate that is not an int64 or a double, ...): executing it
 * falls back.  LI covers FLI, and MOV covers FMOV and CVTIF (the
 * conversion is the destination register's). */
enum {
    OP_BAD, OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_REM, OP_AND, OP_OR, OP_XOR,
    OP_SHL, OP_SHR, OP_SLT, OP_SLE, OP_SEQ, OP_SNE, OP_FADD, OP_FSUB,
    OP_FMUL, OP_FDIV, OP_LI, OP_MOV, OP_CVTFI, OP_LOAD, OP_STORE, OP_BEQZ,
    OP_BNEZ, OP_JUMP, OP_CALL, OP_RET, OP_HALT
};
/* IB_IMM_KIND values: no immediate (the second source is a register,
 * or a memory op's offset of 0), an int64, a double. */
enum { IMM_NONE, IMM_INT, IMM_FLOAT };

/* iout[] layout, mirrored by native.py. */
enum {
    IO_STATUS, IO_N, IO_N_ENTRIES, IO_N_MEM, IO_N_BRANCHES, N_IOUT
};
enum { INTERP_OK, INTERP_LIMIT, INTERP_FALLBACK };
/* ms_interp_copy columns: i64 entry starts, block ids, entry pcs and
 * memory addresses; u8 branch outcomes (kept as i64 while recording). */
enum {
    IC_ENTRY_START, IC_ENTRY_BLOCK, IC_ENTRY_PC, IC_MEM_ADDR, IC_TAKEN,
    N_ICOLS
};

/* A Python int or float: the reference's register and memory values. */
typedef struct {
    int fp;
    union {
        i64 i;
        double f;
    } u;
} Val;

/* The data memory: word address -> value, open addressing. */
typedef struct {
    i64 *keys;
    Val *vals;
    u8 *used;
    uint64_t mask;
    i64 n_used;
} Memory;

typedef struct {
    Vec cols[N_ICOLS];
    Memory mem;
    Val *regs;
    Vec stack;           /* call continuations (block ids) */
} Interp;

static uint64_t memory_find(const Memory *m, i64 addr)
{
    uint64_t k = ((uint64_t)addr * 0x9E3779B97F4A7C15ull >> 17) & m->mask;
    while (m->used[k] && m->keys[k] != addr)
        k = (k + 1) & m->mask;
    return k;
}

static int memory_alloc(Memory *m, uint64_t n_slots)
{
    m->keys = malloc(n_slots * sizeof(i64));
    m->vals = malloc(n_slots * sizeof(Val));
    m->used = calloc(n_slots, 1);
    m->mask = n_slots - 1;
    m->n_used = 0;
    return m->keys && m->vals && m->used;
}

/* The slot of `addr`, claimed (unused) if the word was never written;
 * 0 when growing the table fails. */
static int memory_slot(Memory *m, i64 addr, uint64_t *slot)
{
    uint64_t k = memory_find(m, addr);
    if (m->used[k]) {
        *slot = k;
        return 1;
    }
    if ((uint64_t)(m->n_used + 1) * 2 > m->mask + 1) {
        Memory old = *m;
        if (!memory_alloc(m, (old.mask + 1) * 2)) {
            free(m->keys);
            free(m->vals);
            free(m->used);
            *m = old;
            return 0;
        }
        for (uint64_t j = 0; j <= old.mask; j++) {
            if (!old.used[j])
                continue;
            uint64_t to = memory_find(m, old.keys[j]);
            m->keys[to] = old.keys[j];
            m->vals[to] = old.vals[j];
            m->used[to] = 1;
        }
        m->n_used = old.n_used;
        free(old.keys);
        free(old.vals);
        free(old.used);
        k = memory_find(m, addr);
    }
    m->keys[k] = addr;
    m->used[k] = 1;
    m->n_used++;
    *slot = k;
    return 1;
}

/* int(v); 0 when Python would raise (NaN, infinity) or leave int64. */
static int to_int(Val v, i64 *out)
{
    if (!v.fp) {
        *out = v.u.i;
        return 1;
    }
    double d = v.u.f;
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0))
        return 0;
    *out = (i64)d;
    return 1;
}

/* float(v): an int64 rounds to nearest, as Python's int -> float. */
static double to_float(Val v)
{
    return v.fp ? v.u.f : (double)v.u.i;
}

static int is_zero(Val v)
{
    return v.fp ? v.u.f == 0.0 : v.u.i == 0;
}

static Val int_val(i64 i)
{
    Val v = {0, {.i = i}};
    return v;
}

static Val float_val(double f)
{
    Val v = {1, {.f = f}};
    return v;
}

/* An immediate: an int64, or a double's bits. */
static Val imm_val(int kind, i64 bits)
{
    Val v = {kind == IMM_FLOAT, {.i = bits}};
    return v;
}

/* Python's a < b, a <= b, a == b or a != b as 0 / 1; -1 when an int
 * beyond 2^53 meets a float (Python compares those exactly, and a
 * double cannot hold the int). */
static int compare(int op, Val a, Val b)
{
    if (!a.fp && !b.fp) {
        i64 x = a.u.i, y = b.u.i;
        return op == OP_SLT ? x < y : op == OP_SLE ? x <= y
             : op == OP_SEQ ? x == y : x != y;
    }
    const i64 exact = (i64)1 << 53;
    if ((!a.fp && (a.u.i > exact || a.u.i < -exact))
        || (!b.fp && (b.u.i > exact || b.u.i < -exact)))
        return -1;
    double x = to_float(a), y = to_float(b);
    return op == OP_SLT ? x < y : op == OP_SLE ? x <= y
         : op == OP_SEQ ? x == y : x != y;
}

/* One ALU op of Opcode.alu (repro.ir.interp._ALU_FUNCS); 0 when the
 * reference raises or its result is not an int64 or a double. */
static int alu(int op, Val a, Val b, Val *out)
{
    i64 x, y, r;
    if (op >= OP_SLT && op <= OP_SNE) {
        int c = compare(op, a, b);
        *out = int_val(c);
        return c >= 0;
    }
    if (op >= OP_FADD) {
        double f = to_float(a);
        if (op == OP_FDIV) {
            /* float(a) / b if b != 0 else 0.0 */
            *out = float_val(is_zero(b) ? 0.0 : f / to_float(b));
            return 1;
        }
        double g = to_float(b);
        *out = float_val(op == OP_FADD ? f + g : op == OP_FSUB ? f - g
                                                              : f * g);
        return 1;
    }
    if ((op == OP_DIV || op == OP_REM) && is_zero(b)) {
        *out = int_val(0);  /* division by zero yields 0 */
        return 1;
    }
    if (!to_int(a, &x) || !to_int(b, &y))
        return 0;
    switch (op) {
    case OP_ADD:
        if (__builtin_add_overflow(x, y, &r))
            return 0;
        break;
    case OP_SUB:
        if (__builtin_sub_overflow(x, y, &r))
            return 0;
        break;
    case OP_MUL:
        if (__builtin_mul_overflow(x, y, &r))
            return 0;
        break;
    case OP_DIV:
        /* b != 0 but int(b) == 0 (a fraction) raises; INT64_MIN / -1
         * leaves int64.  Otherwise both truncate toward zero. */
        if (y == 0 || (x == INT64_MIN && y == -1))
            return 0;
        r = x / y;
        break;
    case OP_REM:
        if (y == 0)
            return 0;
        r = y == -1 ? 0 : x % y;
        break;
    case OP_AND:
        r = x & y;
        break;
    case OP_OR:
        r = x | y;
        break;
    case OP_XOR:
        r = x ^ y;
        break;
    case OP_SHL:
        if (y < 0 || y > 63)
            return 0;
        r = (i64)((uint64_t)x << y);
        if (r >> y != x)
            return 0;
        break;
    case OP_SHR:
        if (y < 0)
            return 0;
        r = y > 63 ? (x < 0 ? -1 : 0) : x >> y;
        break;
    default:
        return 0;
    }
    *out = int_val(r);
    return 1;
}

/* Write `v` to register `reg` (-1: r0, discarded) as its class holds
 * it: int(v) or float(v); 0 when int(v) fails. */
static int write_reg(Val *regs, const u8 *reg_fp, i32 reg, Val v)
{
    if (reg < 0)
        return 1;
    if (reg_fp[reg]) {
        regs[reg] = float_val(to_float(v));
        return 1;
    }
    i64 i;
    if (!to_int(v, &i))
        return 0;
    regs[reg] = int_val(i);
    return 1;
}

static void interp_free(Interp *t)
{
    if (!t)
        return;
    for (int c = 0; c < N_ICOLS; c++)
        free(t->cols[c].v);
    free(t->mem.keys);
    free(t->mem.vals);
    free(t->mem.used);
    free(t->regs);
    free(t->stack.v);
    free(t);
}

/* Interpreter.run over the static encoding: record the trace's columns
 * and set iout[]; NULL when out of memory. */
void *ms_interp(const i64 *iparams, void *const *ibufs, i64 *iout)
{
    const u8 *op = ibufs[IB_OP], *imm_kind = ibufs[IB_IMM_KIND];
    const i32 *write = ibufs[IB_WRITE], *src0 = ibufs[IB_SRC0];
    const i32 *src1 = ibufs[IB_SRC1], *target = ibufs[IB_TARGET];
    const i64 *imm = ibufs[IB_IMM], *block_pc = ibufs[IB_BLOCK_PC];
    const i32 *block_len = ibufs[IB_BLOCK_LEN];
    const i32 *block_fall = ibufs[IB_BLOCK_FALL];
    const u8 *reg_fp = ibufs[IB_REG_FP];
    const i64 *mem_addr = ibufs[IB_MEM_ADDR], *mem_bits = ibufs[IB_MEM_BITS];
    const u8 *mem_fp = ibufs[IB_MEM_FP];
    i64 n_regs = iparams[IP_N_REGS], n_memory = iparams[IP_N_MEMORY];
    i64 limit = iparams[IP_LIMIT];
    int failed = 0;

    Interp *t = calloc(1, sizeof(Interp));
    if (!t)
        return NULL;
    uint64_t n_slots = 256;
    while (n_slots < 2 * (uint64_t)n_memory)
        n_slots *= 2;
    t->regs = calloc((size_t)(n_regs ? n_regs : 1), sizeof(Val));
    if (!t->regs || !memory_alloc(&t->mem, n_slots)) {
        interp_free(t);
        return NULL;
    }
    for (i64 r = 0; r < n_regs; r++)
        t->regs[r].fp = reg_fp[r];
    for (i64 k = 0; k < n_memory; k++) {
        uint64_t slot;
        memory_slot(&t->mem, mem_addr[k], &slot);  /* sized: cannot grow */
        t->mem.vals[slot].fp = mem_fp[k];
        t->mem.vals[slot].u.i = mem_bits[k];
    }

    Val *regs = t->regs;
    Vec *starts = &t->cols[IC_ENTRY_START], *blocks = &t->cols[IC_ENTRY_BLOCK];
    Vec *pcs = &t->cols[IC_ENTRY_PC], *addrs = &t->cols[IC_MEM_ADDR];
    int status = INTERP_OK;
    i64 n = 0, block = iparams[IP_ENTRY];
    for (;;) {
        i64 len = block_len[block], first = block_pc[block];
        vec_push(starts, n, &failed);
        vec_push(blocks, block, &failed);
        vec_push(pcs, len ? first : 0, &failed);
        /* Every entry runs its whole block, so the instruction budget
         * is checked once per entry. */
        n += len;
        if (n > limit) {
            status = INTERP_LIMIT;
            break;
        }
        i64 next = block_fall[block];
        int halted = 0;
        for (i64 p = first; p < first + len && !status; p++) {
            Val a, b, v;
            i64 base, addr;
            uint64_t slot;
            int kind = op[p];
            switch (kind) {
            case OP_LI:
                if (!write_reg(regs, reg_fp, write[p],
                               imm_val(imm_kind[p], imm[p])))
                    status = INTERP_FALLBACK;
                break;
            case OP_MOV:
                if (!write_reg(regs, reg_fp, write[p], regs[src0[p]]))
                    status = INTERP_FALLBACK;
                break;
            case OP_CVTFI:
                if (!to_int(regs[src0[p]], &base)
                    || !write_reg(regs, reg_fp, write[p], int_val(base)))
                    status = INTERP_FALLBACK;
                break;
            case OP_LOAD:
            case OP_STORE:
                /* address = int(base) + int(imm or 0), the base in
                 * src0 and the offset an int64; a store's value is
                 * src1. */
                if (!to_int(regs[src0[p]], &base)
                    || __builtin_add_overflow(base, imm[p], &addr)) {
                    status = INTERP_FALLBACK;
                    break;
                }
                vec_push(addrs, addr, &failed);
                if (kind == OP_STORE) {
                    if (!memory_slot(&t->mem, addr, &slot)) {
                        failed = 1;
                        break;
                    }
                    t->mem.vals[slot] = regs[src1[p]];
                } else if (write[p] >= 0) {
                    slot = memory_find(&t->mem, addr);
                    v = t->mem.used[slot] ? t->mem.vals[slot] : int_val(0);
                    if (!write_reg(regs, reg_fp, write[p], v))
                        status = INTERP_FALLBACK;
                }
                break;
            case OP_BEQZ:
            case OP_BNEZ: {
                int taken = is_zero(regs[src0[p]]) == (kind == OP_BEQZ);
                vec_push(&t->cols[IC_TAKEN], taken, &failed);
                if (taken)
                    next = target[p];
                break;
            }
            case OP_JUMP:
                next = target[p];
                break;
            case OP_CALL:
                vec_push(&t->stack, block_fall[block], &failed);
                next = target[p];
                break;
            case OP_RET:
                if (t->stack.len == 0)
                    status = INTERP_FALLBACK;  /* the reference raises */
                else
                    next = t->stack.v[--t->stack.len];
                break;
            case OP_HALT:
                halted = 1;
                next = -1;
                break;
            case OP_BAD:
                status = INTERP_FALLBACK;
                break;
            default:
                a = regs[src0[p]];
                b = src1[p] >= 0 ? regs[src1[p]]
                                 : imm_val(imm_kind[p], imm[p]);
                if (!alu(kind, a, b, &v)
                    || !write_reg(regs, reg_fp, write[p], v))
                    status = INTERP_FALLBACK;
                break;
            }
            if (failed)
                break;
        }
        if (status || failed || halted)
            break;
        if (next < 0) {
            status = INTERP_FALLBACK;  /* fell off the end of the block */
            break;
        }
        block = next;
    }
    if (failed) {
        interp_free(t);
        return NULL;
    }
    iout[IO_STATUS] = status;
    iout[IO_N] = n;
    iout[IO_N_ENTRIES] = starts->len;
    iout[IO_N_MEM] = addrs->len;
    iout[IO_N_BRANCHES] = t->cols[IC_TAKEN].len;
    return t;
}

/* Copy one recorded column into `dst` (sized from iout[]). */
void ms_interp_copy(void *handle, int what, void *dst)
{
    const Vec *col = &((Interp *)handle)->cols[what];
    if (what == IC_TAKEN) {
        for (i64 k = 0; k < col->len; k++)
            ((u8 *)dst)[k] = (u8)col->v[k];
    } else {
        memcpy(dst, col->v, (size_t)col->len * sizeof(i64));
    }
}

void ms_interp_free(void *handle)
{
    interp_free(handle);
}

/* ----------------------------------------------------------- lowering */

/* lparams[] layout (int64), mirrored by native.py. */
enum {
    L_N, L_N_ENTRIES, L_N_PCS, L_N_REGS, L_N_MEM, L_N_BRANCHES, L_PROD_CAP,
    N_LPARAMS
};

/* lin[] layout, mirrored by native.py: the trace's columns, then its
 * program's static instructions indexed by pc. */
enum {
    LI_ENTRY_START, LI_ENTRY_PC,  /* i64[n_entries]                    */
    LI_MEM_ADDR,                  /* i64[n_mem]: per LOAD/STORE, in order */
    LI_TAKEN,                     /* u8[n_branches]: per BEQZ/BNEZ      */
    LI_OPCLS, LI_KIND,            /* u8[n_pcs]                          */
    LI_LATENCY, LI_WRITE,         /* i32[n_pcs]; write: register or -1  */
    LI_READ_OFF, LI_READS,        /* i32, CSR of the registers read     */
    N_LIN
};
enum { KIND_LOAD = 1, KIND_STORE = 2, KIND_COND = 4 };

/* lout[] layout, mirrored by native.py. */
enum { LO_N_PROD, LO_GSHARE_MISPREDICTIONS, N_LOUT };
enum { LOWER_OK, LOWER_NO_MEMORY, LOWER_BAD_COLUMNS };

/* GsharePredictor's defaults: 16 history bits, 2^16 counters. */
#define GSHARE_MASK ((1u << 16) - 1)

/* Last store per word address: open addressing, value -1 = empty. */
typedef struct {
    i64 *keys;
    i32 *vals;
    uint64_t mask;
} StoreMap;

static uint64_t store_find(const StoreMap *s, i64 addr)
{
    uint64_t k = ((uint64_t)addr * 0x9E3779B97F4A7C15ull >> 17) & s->mask;
    while (s->vals[k] >= 0 && s->keys[k] != addr)
        k = (k + 1) & s->mask;
    return k;
}

/* TraceArrays' loop over one trace: fill the trace buffers of bufs[]
 * (zeroed by the caller) and the lout[] counts. */
int ms_lower(const i64 *lparams, void *const *lin, void *const *bufs,
             i64 *lout)
{
    i64 n = lparams[L_N], n_entries = lparams[L_N_ENTRIES];
    i64 n_pcs = lparams[L_N_PCS], n_mem = lparams[L_N_MEM];
    i64 n_branches = lparams[L_N_BRANCHES], prod_cap = lparams[L_PROD_CAP];
    const i64 *entry_start = lin[LI_ENTRY_START], *entry_pc = lin[LI_ENTRY_PC];
    const i64 *mem_addr = lin[LI_MEM_ADDR];
    const u8 *taken = lin[LI_TAKEN], *pc_opcls = lin[LI_OPCLS];
    const u8 *pc_kind = lin[LI_KIND];
    const i32 *pc_latency = lin[LI_LATENCY], *pc_write = lin[LI_WRITE];
    const i32 *read_off = lin[LI_READ_OFF], *reads = lin[LI_READS];
    u8 *opcls = bufs[B_OPCLS], *is_load = bufs[B_IS_LOAD];
    u8 *is_store = bufs[B_IS_STORE], *is_mem = bufs[B_IS_MEM];
    u8 *is_cond_branch = bufs[B_IS_COND_BRANCH];
    u8 *block_start = bufs[B_BLOCK_START], *has_write = bufs[B_HAS_WRITE];
    u8 *gshare_mispred = bufs[B_GSHARE_MISPRED];
    i64 *pc = bufs[B_PC], *addr = bufs[B_ADDR];
    i32 *latency = bufs[B_LATENCY], *mem_producer = bufs[B_MEM_PRODUCER];
    i32 *prod_off = bufs[B_PROD_OFF], *prod = bufs[B_PROD];

    /* Each block entry runs its whole block, so an instruction's pc is
     * its entry's start pc plus its offset in the entry. */
    if (n > 0 && (n_entries == 0 || entry_start[0] != 0))
        return LOWER_BAD_COLUMNS;
    for (i64 k = 0; k < n_entries; k++) {
        i64 s = entry_start[k];
        i64 e = k + 1 < n_entries ? entry_start[k + 1] : n;
        if (e < s || e > n || entry_pc[k] < 0 || entry_pc[k] + (e - s) > n_pcs)
            return LOWER_BAD_COLUMNS;
        if (s < n)
            block_start[s] = 1;
        for (i64 i = s; i < e; i++)
            pc[i] = entry_pc[k] + (i - s);
    }

    i64 n_regs = lparams[L_N_REGS];
    uint64_t n_slots = 16;
    while (n_slots < 2 * (uint64_t)n_mem)
        n_slots *= 2;
    StoreMap stores = {malloc(n_slots * sizeof(i64)),
                       malloc(n_slots * sizeof(i32)), n_slots - 1};
    i32 *last_writer = malloc((size_t)(n_regs ? n_regs : 1) * sizeof(i32));
    u8 *counters = malloc(GSHARE_MASK + 1);
    int status = LOWER_OK;
    if (!stores.keys || !stores.vals || !last_writer || !counters) {
        status = LOWER_NO_MEMORY;
        goto done;
    }
    memset(stores.vals, 0xff, n_slots * sizeof(i32));
    memset(last_writer, 0xff, (size_t)n_regs * sizeof(i32));
    memset(counters, 1, GSHARE_MASK + 1);  /* weakly not-taken */

    i64 n_prod = 0, mem_at = 0, branch_at = 0, mispredictions = 0;
    uint64_t history = 0;
    for (i64 i = 0; i < n; i++) {
        i64 p = pc[i];
        int kind = pc_kind[p];
        opcls[i] = pc_opcls[p];
        latency[i] = pc_latency[p];
        /* Register producers: the distinct last writers of the
         * registers read, ascending. */
        i64 first = n_prod;
        prod_off[i] = (i32)first;
        for (i32 r = read_off[p]; r < read_off[p + 1]; r++) {
            i32 w = last_writer[reads[r]];
            if (w < 0)
                continue;
            i64 at = n_prod;
            while (at > first && prod[at - 1] > w)
                at--;
            if (at > first && prod[at - 1] == w)
                continue;
            if (n_prod == prod_cap) {
                status = LOWER_BAD_COLUMNS;
                goto done;
            }
            memmove(prod + at + 1, prod + at,
                    (size_t)(n_prod - at) * sizeof(i32));
            prod[at] = w;
            n_prod++;
        }
        if (pc_write[p] >= 0) {
            has_write[i] = 1;
            last_writer[pc_write[p]] = (i32)i;
        }
        mem_producer[i] = -1;
        if (kind & (KIND_LOAD | KIND_STORE)) {
            if (mem_at == n_mem) {
                status = LOWER_BAD_COLUMNS;
                goto done;
            }
            i64 a = mem_addr[mem_at++];
            uint64_t slot = store_find(&stores, a);
            addr[i] = a;
            is_mem[i] = 1;
            if (kind & KIND_LOAD) {
                is_load[i] = 1;
                mem_producer[i] = stores.vals[slot];
            } else {
                is_store[i] = 1;
                stores.keys[slot] = a;
                stores.vals[slot] = (i32)i;
            }
        }
        if (kind & KIND_COND) {
            if (branch_at == n_branches) {
                status = LOWER_BAD_COLUMNS;
                goto done;
            }
            int t = taken[branch_at++] != 0;
            uint64_t g = ((uint64_t)p ^ history) & GSHARE_MASK;
            int predicted = counters[g] >= 2;
            if (t) {
                if (counters[g] < 3)
                    counters[g]++;
            } else if (counters[g] > 0) {
                counters[g]--;
            }
            history = ((history << 1) | (uint64_t)t) & GSHARE_MASK;
            is_cond_branch[i] = 1;
            if (predicted != t) {
                gshare_mispred[i] = 1;
                mispredictions++;
            }
        }
    }
    if (mem_at != n_mem || branch_at != n_branches) {
        status = LOWER_BAD_COLUMNS;
        goto done;
    }
    prod_off[n] = (i32)n_prod;
    lout[LO_N_PROD] = n_prod;
    lout[LO_GSHARE_MISPREDICTIONS] = mispredictions;
done:
    free(stores.keys);
    free(stores.vals);
    free(last_writer);
    free(counters);
    return status;
}

/* ------------------------------------------------------- release flags */

/* rparams[] layout (int64), mirrored by native.py. */
enum { RP_N, RP_N_ROWS, RP_N_MASKS, N_RPARAMS };

/* rbufs[] layout, mirrored by native.py. */
enum {
    RB_TABLE,                     /* i64[n_rows * T_COLS]: the task table */
    RB_PC, RB_BLOCK_START,        /* the lowering's B_PC and B_BLOCK_START */
    RB_ABSORBED,                  /* u8[n]: inside an absorbed callee    */
    RB_MASK_ROOT, RB_MASK_PC,     /* i64[n_masks]: task root pc, block pc */
    RB_MASK_OFF,                  /* i64[n_masks + 1]: offsets in masks  */
    RB_MASKS,                     /* u8: each block's release mask       */
    RB_FLAGS,                     /* u8[n], zeroed: out                  */
    N_RBUFS
};

/* The SCHEDULE flags of one stream: each non-absorbed instruction takes
 * its position's bit of the mask its (task root pc, block pc) pair was
 * analysed into, and an entry whose pair has no mask keeps zeros.
 * Returns 0, or 1 when out of memory. */
int ms_release(const i64 *rparams, void *const *rbufs)
{
    i64 n_rows = rparams[RP_N_ROWS], n_masks = rparams[RP_N_MASKS];
    const i64 *table = rbufs[RB_TABLE], *pc = rbufs[RB_PC];
    const u8 *block_start = rbufs[RB_BLOCK_START];
    const u8 *absorbed = rbufs[RB_ABSORBED];
    const i64 *mask_root = rbufs[RB_MASK_ROOT], *mask_pc = rbufs[RB_MASK_PC];
    const i64 *mask_off = rbufs[RB_MASK_OFF];
    const u8 *masks = rbufs[RB_MASKS];
    u8 *flags = rbufs[RB_FLAGS];

    uint64_t n_slots = 16;
    while (n_slots < 2 * (uint64_t)n_masks)
        n_slots *= 2;
    uint64_t hmask = n_slots - 1;
    i64 *slots = malloc(n_slots * sizeof(i64));  /* mask index, -1 empty */
    if (!slots)
        return 1;
    memset(slots, 0xff, n_slots * sizeof(i64));
    for (i64 k = 0; k < n_masks; k++) {
        uint64_t s = pair_hash(mask_root[k], mask_pc[k]) & hmask;
        while (slots[s] >= 0)
            s = (s + 1) & hmask;
        slots[s] = k;
    }
    for (i64 row = 0; row < n_rows; row++) {
        const i64 *t = table + row * T_COLS;
        const u8 *mask = NULL;
        i64 base = 0;
        for (i64 i = t[T_START]; i < t[T_END]; i++) {
            if (block_start[i]) {
                uint64_t s = pair_hash(t[T_PC], pc[i]) & hmask;
                while (slots[s] >= 0 && (mask_root[slots[s]] != t[T_PC]
                                         || mask_pc[slots[s]] != pc[i]))
                    s = (s + 1) & hmask;
                mask = slots[s] >= 0 ? masks + mask_off[slots[s]] : NULL;
                base = i;
            }
            if (mask && !absorbed[i])
                flags[i] = mask[i - base];
        }
    }
    free(slots);
    return 0;
}

/* ---------------------------------------------------------------- run */

static void machine_free(Machine *m)
{
    if (!m)
        return;
    if (m->pus) {
        for (int i = 0; i < m->n_pus; i++) {
            free(m->pus[i].win_idx);
            free(m->pus[i].heap);
            free(m->pus[i].egress);
        }
        free(m->pus);
    }
    free(m->task_seq);
    free(m->rev_off);
    free(m->rev);
    Cache *caches[3] = {&m->l1d, &m->l1i, &m->l2};
    for (int k = 0; k < 3; k++) {
        free(caches[k]->keys);
        free(caches[k]->ways);
        free(caches[k]->fill);
    }
    free(m->sync.entries);
    free(m->sync.slots);
    free(m->pred.path.counters);
    free(m->pred.path.targets);
    free(m->pred.gshare.counters);
    free(m->pred.gshare.targets);
    free(m->pred.choosers);
    free(m->viol_head);
    free(m->viol_load);
    free(m->viol_seq);
    free(m->viol_next);
    free(m->viol_gen);
    free(m->stores);
    free(m->issued_pos);
    free(m->events.v);
    free(m->depths.v);
    free(m);
}

static int machine_init(Machine *m, const i64 *params, const i64 *pu_params,
                        void *const *bufs)
{
    m->n = params[P_N];
    m->n_tasks = params[P_N_TASKS];
    m->n_pus = (int)params[P_N_PUS];
    m->ooo = (int)params[P_OOO];
    m->rob_size = (int)params[P_ROB];
    m->issue_list_size = (int)params[P_ISSUE_LIST];
    m->task_start_overhead = params[P_TASK_START];
    m->task_end_overhead = params[P_TASK_END];
    m->branch_penalty = params[P_BRANCH_PENALTY];
    m->redirect = params[P_REDIRECT];
    m->ring_bw = (int)params[P_RING_BW];
    m->hop_latency = params[P_HOP_LAT];
    m->policy = (int)params[P_POLICY];
    m->release_lag = params[P_RELEASE_LAG];
    m->arb_latency = params[P_ARB_LAT];
    m->arb_entries = params[P_ARB_ENTRIES];
    m->stlf_latency = params[P_STLF_LAT];
    m->l1d_hit = params[P_L1D_HIT];
    m->l1d_wpl = params[P_L1D_WPL];
    m->l1i_hit = params[P_L1I_HIT];
    m->l1i_wpl = params[P_L1I_WPL];
    m->l2_hit = params[P_L2_HIT];
    m->mem_latency = params[P_MEM_LAT];
    m->trace = (int)params[P_TRACE];

    m->opcls = bufs[B_OPCLS];
    m->is_load = bufs[B_IS_LOAD];
    m->is_store = bufs[B_IS_STORE];
    m->is_mem = bufs[B_IS_MEM];
    m->is_cond_branch = bufs[B_IS_COND_BRANCH];
    m->block_start = bufs[B_BLOCK_START];
    m->has_write = bufs[B_HAS_WRITE];
    m->gshare_mispred = bufs[B_GSHARE_MISPRED];
    m->has_remote = bufs[B_HAS_REMOTE];
    m->release_now = bufs[B_RELEASE_NOW];
    m->pc = bufs[B_PC];
    m->addr = bufs[B_ADDR];
    m->latency = bufs[B_LATENCY];
    m->mem_producer = bufs[B_MEM_PRODUCER];
    m->prod_off = bufs[B_PROD_OFF];
    m->prod = bufs[B_PROD];
    m->tasks = bufs[B_TASKS];
    m->complete = bufs[B_COMPLETE];
    m->forward = bufs[B_FORWARD];
    m->generation = bufs[B_GENERATION];
    m->pu_of_seq = bufs[B_PU_OF_SEQ];
    m->pu_useful = bufs[B_PU_USEFUL];
    m->pu_occupied = bufs[B_PU_OCCUPIED];

    size_t n = (size_t)(m->n ? m->n : 1);
    m->task_seq = malloc(n * sizeof(i32));
    m->viol_head = malloc(n * sizeof(i32));
    if (!m->task_seq || !m->viol_head)
        return 0;
    memset(m->viol_head, 0xff, n * sizeof(i32));
    for (i64 seq = 0; seq < m->n_tasks; seq++)
        for (i64 i = TASK(m, seq, T_START); i < TASK(m, seq, T_END); i++)
            m->task_seq[i] = (i32)seq;
    /* A register value some later task reads is forwarded on the ring;
     * one read only inside its own task completes locally.  rev lists
     * each producer's reading tasks, ascending and once each (tasks
     * tile the trace in order, so a producer's readers come in task
     * order): the tasks schedule_forward wakes.  The first pass counts
     * them into rev_off, tracking the last task counted in `last`; the
     * second reuses `last` as each producer's fill cursor. */
    memset(m->has_remote, 0, (size_t)m->n);
    m->rev_off = calloc(n + 1, sizeof(i32));
    i32 *last = malloc(n * sizeof(i32));
    if (!m->rev_off || !last) {
        free(last);
        return 0;
    }
    memset(last, 0xff, n * sizeof(i32));
    for (i64 i = 0; i < m->n; i++)
        for (i32 k = m->prod_off[i]; k < m->prod_off[i + 1]; k++) {
            i32 p = m->prod[k], seq = m->task_seq[i];
            if (m->task_seq[p] != seq && last[p] != seq) {
                m->has_remote[p] = 1;
                last[p] = seq;
                m->rev_off[p + 1]++;
            }
        }
    for (i64 i = 0; i < m->n; i++) {
        m->rev_off[i + 1] += m->rev_off[i];
        last[i] = m->rev_off[i];
    }
    m->rev = malloc((size_t)(m->rev_off[m->n] ? m->rev_off[m->n] : 1)
                    * sizeof(i32));
    if (!m->rev) {
        free(last);
        return 0;
    }
    for (i64 i = 0; i < m->n; i++)
        for (i32 k = m->prod_off[i]; k < m->prod_off[i + 1]; k++) {
            i32 p = m->prod[k], seq = m->task_seq[i];
            if (m->task_seq[p] != seq
                && (last[p] == m->rev_off[p] || m->rev[last[p] - 1] != seq))
                m->rev[last[p]++] = seq;
        }
    free(last);
    m->viol_free = -1;
    for (i64 i = 0; i < m->n; i++)
        m->complete[i] = m->forward[i] = -1;

    m->pus = calloc((size_t)m->n_pus, sizeof(PU));
    m->stores = malloc((size_t)m->rob_size * sizeof(i32));
    m->issued_pos = malloc((size_t)m->rob_size * sizeof(int));
    if (!m->pus || !m->stores || !m->issued_pos)
        return 0;
    for (int i = 0; i < m->n_pus; i++) {
        PU *pu = &m->pus[i];
        const i64 *pp = pu_params + i * PU_PARAMS;
        pu->index = i;
        pu->issue_width = (int)pp[0];
        pu->fetch_width = (int)pp[1];
        for (int k = 0; k < 4; k++) {
            pu->fu[k] = (int)pp[2 + k];
            pu->lat_extra[k] = (int)pp[6 + k];
        }
        pu->win_idx = malloc((size_t)m->rob_size * sizeof(i32));
        pu->heap = malloc((size_t)m->rob_size * sizeof(Completion));
        if (!pu->win_idx || !pu->heap)
            return 0;
        reset_idle(pu);
    }
    m->pending = -1;
    m->retiring = -1;
    m->retire_finish = -1;

    if (!cache_init(&m->l1d, params[P_L1D_SETS], params[P_L1D_ASSOC])
        || !cache_init(&m->l1i, params[P_L1I_SETS], params[P_L1I_ASSOC])
        || !cache_init(&m->l2, params[P_L2_SETS], params[P_L2_ASSOC]))
        return 0;
    m->sync.capacity = params[P_SYNC_SIZE];

    m->pred.kind = (int)params[P_PREDICTOR];
    if (m->pred.kind != PRED_GSHARE && !table_init(&m->pred.path))
        return 0;
    if (m->pred.kind != PRED_PATH && !table_init(&m->pred.gshare))
        return 0;
    if (m->pred.kind == PRED_HYBRID) {
        m->pred.choosers = malloc(TABLE);
        if (!m->pred.choosers)
            return 0;
        memset(m->pred.choosers, 1, TABLE);
    }
    return 1;
}

void *ms_run(const i64 *params, const i64 *pu_params, void *const *bufs,
             i64 *out)
{
    Machine *m = calloc(1, sizeof(Machine));
    if (!m || !machine_init(m, params, pu_params, bufs)) {
        machine_free(m);
        return NULL;
    }
    i64 max_cycles = params[P_MAX_CYCLES];
    i64 cycle = 0;
    int stuck = 0;
    while (m->retire_seq < m->n_tasks && !m->failed) {
        if (cycle > max_cycles) {
            stuck = 1;
            break;
        }
        tick(m, cycle);
        cycle++;
    }
    if (m->failed) {
        machine_free(m);
        return NULL;
    }

    memset(out, 0, N_OUT * sizeof(i64));
    out[O_STATUS] = stuck;
    out[O_CYCLE] = cycle;
    out[O_RETIRE_SEQ] = m->retire_seq;
    out[O_NEXT_SEQ] = m->next_seq;
    out[O_NEXT_ASSIGN_PU] = m->next_assign_pu;
    out[O_RESUME_CYCLE] = m->resume_cycle;
    out[O_PENDING] = m->pending;
    out[O_PREDICTIONS] = m->predictions;
    out[O_MISPREDICTIONS] = m->mispredictions;
    out[O_CONTROL_SQUASHES] = m->control_squashes;
    out[O_MEMORY_SQUASHES] = m->memory_squashes;
    out[O_CONTROL_MISSPEC] = m->control_misspec;
    out[O_MEMORY_MISSPEC] = m->memory_misspec;
    out[O_IDLE] = m->idle_accum;
    out[O_SPAN] = m->span_accum;
    out[O_ACTIVE_SPAN] = m->active_span;
    out[O_RETIRE_FINISH] = m->retire_finish;
    for (int r = 0; r < N_REASONS; r++)
        out[O_REASONS + r] = m->reason_accum[r];
    out[O_CACHE + 0] = m->l1d.hits;
    out[O_CACHE + 1] = m->l1d.misses;
    out[O_CACHE + 2] = m->l1i.hits;
    out[O_CACHE + 3] = m->l1i.misses;
    out[O_CACHE + 4] = m->l2.hits;
    out[O_CACHE + 5] = m->l2.misses;
    const TargetTable *own = m->pred.kind == PRED_GSHARE ? &m->pred.gshare
                                                         : &m->pred.path;
    if (m->pred.kind == PRED_HYBRID) {
        out[O_PRED + 0] = m->pred.predictions;
        out[O_PRED + 1] = m->pred.mispredictions;
    } else {
        out[O_PRED + 0] = own->predictions;
        out[O_PRED + 1] = own->mispredictions;
        out[O_PRED + 2] = own->history;
    }
    out[O_PRED + 3] = m->pred.path.predictions;
    out[O_PRED + 4] = m->pred.path.mispredictions;
    out[O_PRED + 5] = m->pred.path.history;
    out[O_PRED + 6] = m->pred.gshare.predictions;
    out[O_PRED + 7] = m->pred.gshare.mispredictions;
    out[O_PRED + 8] = m->pred.gshare.history;
    out[O_RAS_OVERFLOWS] = m->ras_overflows;
    out[O_N_EVENTS] = m->events.len / EV_WORDS;
    out[O_N_DEPTHS] = m->depths.len;
    out[O_N_SYNC] = m->sync.n_present;
    out[O_N_RAS] = m->ras_len;
    memcpy(out + O_COUNTERS, m->counters, sizeof(m->counters));
    return m;
}

/* Copy one variable-length output into `dst` (sized from out[]). */
void ms_copy(void *handle, int what, i64 *dst)
{
    Machine *m = handle;
    if (what == COPY_EVENTS) {
        memcpy(dst, m->events.v, (size_t)m->events.len * sizeof(i64));
    } else if (what == COPY_DEPTHS) {
        memcpy(dst, m->depths.v, (size_t)m->depths.len * sizeof(i64));
    } else if (what == COPY_SYNC) {
        /* Present pairs, least recently touched first. */
        i64 k = 0;
        i64 last = 0;
        for (i64 left = m->sync.n_present; left > 0; left--) {
            i64 best = -1;
            for (i64 e = 0; e < m->sync.n_entries; e++) {
                const SyncEntry *s = &m->sync.entries[e];
                if (s->present && s->stamp > last
                    && (best < 0 || s->stamp < m->sync.entries[best].stamp))
                    best = e;
            }
            dst[k++] = m->sync.entries[best].store_pc;
            dst[k++] = m->sync.entries[best].load_pc;
            last = m->sync.entries[best].stamp;
        }
    } else if (what == COPY_RAS) {
        memcpy(dst, m->ras, (size_t)m->ras_len * sizeof(i64));
    }
}

void ms_free(void *handle)
{
    machine_free(handle);
}
