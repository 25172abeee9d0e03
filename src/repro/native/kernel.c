/* Native hot core of the branch-and-bound searches (engine="native").
 *
 * The C implementation of the two search loops whose readable
 * specification is the recursive reference engine in Python:
 *
 *   repro_dfs   <-> rec() in repro/sched/search.py
 *                   (the pruned DFS of schedule_block)
 *   repro_split <-> _schedule_window in repro/sched/splitting.py
 *                   (the windowed search of schedule_block_split)
 *
 * The inputs are the flat tables of repro/sched/core.py (_Flat: dense
 * instruction index = position in dag.idents, dense pipeline index =
 * rank of the pipeline ident) plus what the shared Python preamble
 * (run_native_search) already computed: the incumbent after seed
 * pricing and the heuristic seeds, the latency chains and the pending
 * pipeline users.
 *
 * The contract is the repository's two-engine lattice: every decision
 * -- candidate order, all five prunes, the dominance-memo FIFO policy,
 * the curtail/deadline checks, the Omega-call accounting -- is made in
 * the same order on the same integers as the reference engine, so every
 * output (schedule, counters, flags) is bit-for-bit identical.  Only
 * the representation differs:
 *
 *   - the recursion is an explicit stack of candidate frames with
 *     in-place do/undo of the timing state: every push of instruction
 *     k appends to order/etas, writes issue[k], adds to the running
 *     NOP total and saves the clobbered per-pipeline last issue; the
 *     matching pop restores them in reverse.  A node's candidate list
 *     (and each candidate's eta) is computed once, at node entry --
 *     between two siblings the state is fully restored, so the cached
 *     eta equals what the reference recomputes at push time;
 *   - ready/scheduled sets are multiword uint64 bitsets (iterated
 *     lowest-bit-first) instead of the reference's ready lists and
 *     arbitrary-precision scheduled masks; the dense relabeling is a
 *     bijection, so every memo/equivalence key partitions exactly like
 *     the reference's;
 *   - the dominance memo is a chained hash table plus an
 *     insertion-order list, replicating dict semantics exactly: lookup
 *     by full serialized key, overwrite-in-place keeps insertion
 *     position, FIFO eviction drops the oldest entry at capacity;
 *   - Optional[int] values (pipeline last-issue, variable-ready bounds)
 *     use INT64_MIN as the None sentinel.
 *
 * The file is self-contained C99 with no dependencies beyond libc; it
 * is compiled on first use by repro/native/build.py and bound through
 * ctypes by repro/native/bindings.py.  Bump NATIVE_ABI_VERSION whenever
 * an exported signature or cfg/stats layout changes -- the build cache
 * keys on it.
 */

/* clock_gettime/CLOCK_MONOTONIC need POSIX.1b under strict -std=c99. */
#if !defined(_WIN32)
#define _POSIX_C_SOURCE 199309L
#endif

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define NATIVE_ABI_VERSION 1

/* None sentinel for pipe_last / var_bound / saved values. */
#define NONE INT64_MIN

/* Return codes. */
#define OK 0
#define ERR_ALLOC (-1)

typedef int64_t i64;
typedef uint64_t u64;

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* ------------------------------------------------------------------ */
/* Wall clock (deadline checks): monotonic seconds.                    */
/* ------------------------------------------------------------------ */

static double now_sec(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* Multiword bitsets (W = ceil(n/64) words, lowest-bit-first order).   */
/* ------------------------------------------------------------------ */

static inline int bs_test(const u64 *b, i64 k) {
    return (int)((b[k >> 6] >> (k & 63)) & 1u);
}

static inline void bs_set(u64 *b, i64 k) { b[k >> 6] |= (u64)1 << (k & 63); }

static inline void bs_clear(u64 *b, i64 k) {
    b[k >> 6] &= ~((u64)1 << (k & 63));
}

static inline i64 ctz64(u64 x) {
#if defined(__GNUC__) || defined(__clang__)
    return (i64)__builtin_ctzll(x);
#else
    i64 c = 0;
    while (!(x & 1u)) {
        x >>= 1;
        c++;
    }
    return c;
#endif
}

/* Does `succ_row` reach outside `mask`?  (succ_mask[k] & ~mask != 0) */
static inline int bs_escapes(const u64 *succ_row, const u64 *mask, i64 W) {
    for (i64 w = 0; w < W; w++) {
        if (succ_row[w] & ~mask[w]) return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Candidates: (eta, seed position, dense index) triples, ordered      */
/* exactly like the reference's sort keys -- seed positions are unique, */
/* so the (eta, seed) order is total and stability is irrelevant.      */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 eta, seedp, k;
} Cand;

static void cand_sort(Cand *c, i64 len, int cheapest_first) {
    /* Insertion sort: candidate lists are tiny (the population averages
     * ~1-2 ready instructions per node). */
    for (i64 i = 1; i < len; i++) {
        Cand x = c[i];
        i64 j = i - 1;
        if (cheapest_first) {
            while (j >= 0 && (c[j].eta > x.eta ||
                              (c[j].eta == x.eta && c[j].seedp > x.seedp))) {
                c[j + 1] = c[j];
                j--;
            }
        } else {
            while (j >= 0 && c[j].seedp > x.seedp) {
                c[j + 1] = c[j];
                j--;
            }
        }
        c[j + 1] = x;
    }
}

/* Growable candidate pool + frame stack (the explicit DFS stack). */

typedef struct {
    i64 start, count, idx;
} Frame;

typedef struct {
    Cand *pool;
    i64 pool_len, pool_cap;
    Frame *frames;
    i64 frames_len, frames_cap;
} Stack;

static int stack_init(Stack *s, i64 n) {
    s->pool_len = 0;
    s->pool_cap = 4 * n + 16;
    s->frames_len = 0;
    s->frames_cap = n + 16;
    s->pool = (Cand *)malloc((size_t)s->pool_cap * sizeof(Cand));
    s->frames = (Frame *)malloc((size_t)s->frames_cap * sizeof(Frame));
    return (s->pool && s->frames) ? OK : ERR_ALLOC;
}

static void stack_free(Stack *s) {
    free(s->pool);
    free(s->frames);
}

static int pool_reserve(Stack *s, i64 extra) {
    if (s->pool_len + extra <= s->pool_cap) return OK;
    i64 cap = s->pool_cap;
    while (cap < s->pool_len + extra) cap *= 2;
    Cand *p = (Cand *)realloc(s->pool, (size_t)cap * sizeof(Cand));
    if (!p) return ERR_ALLOC;
    s->pool = p;
    s->pool_cap = cap;
    return OK;
}

static int frame_push(Stack *s, i64 start, i64 count, i64 idx) {
    if (s->frames_len == s->frames_cap) {
        i64 cap = s->frames_cap * 2;
        Frame *f = (Frame *)realloc(s->frames, (size_t)cap * sizeof(Frame));
        if (!f) return ERR_ALLOC;
        s->frames = f;
        s->frames_cap = cap;
    }
    s->frames[s->frames_len].start = start;
    s->frames[s->frames_len].count = count;
    s->frames[s->frames_len].idx = idx;
    s->frames_len++;
    return OK;
}

/* ------------------------------------------------------------------ */
/* Dominance memo: dict semantics (lookup by serialized key, overwrite */
/* in place, FIFO eviction in insertion order) on a chained hash table */
/* threaded with an insertion-order list.                              */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 *key;
    i64 klen;
    u64 hash;
    i64 value;
    i64 prev, next; /* insertion-order links (-1 terminated) */
    i64 chain;      /* bucket chain / free-list link */
} MEntry;

typedef struct {
    MEntry *e;
    i64 cap, used, count;
    i64 *buckets;
    u64 nbuckets; /* power of two */
    i64 head, tail, free_list;
} Memo;

static u64 memo_hash(const i64 *key, i64 klen) {
    const unsigned char *p = (const unsigned char *)key;
    size_t nbytes = (size_t)klen * sizeof(i64);
    u64 h = 1469598103934665603ull; /* FNV-1a 64 */
    for (size_t i = 0; i < nbytes; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

static int memo_init(Memo *m) {
    m->cap = 64;
    m->used = 0;
    m->count = 0;
    m->nbuckets = 64;
    m->head = m->tail = m->free_list = -1;
    m->e = (MEntry *)malloc((size_t)m->cap * sizeof(MEntry));
    m->buckets = (i64 *)malloc(m->nbuckets * sizeof(i64));
    if (!m->e || !m->buckets) return ERR_ALLOC;
    for (u64 b = 0; b < m->nbuckets; b++) m->buckets[b] = -1;
    return OK;
}

static void memo_free(Memo *m) {
    for (i64 i = m->head; i >= 0; i = m->e[i].next) free(m->e[i].key);
    free(m->e);
    free(m->buckets);
}

static i64 memo_find(const Memo *m, const i64 *key, i64 klen, u64 h) {
    for (i64 i = m->buckets[h & (m->nbuckets - 1)]; i >= 0; i = m->e[i].chain) {
        if (m->e[i].hash == h && m->e[i].klen == klen &&
            memcmp(m->e[i].key, key, (size_t)klen * sizeof(i64)) == 0)
            return i;
    }
    return -1;
}

static void memo_unlink_bucket(Memo *m, i64 slot) {
    i64 *cursor = &m->buckets[m->e[slot].hash & (m->nbuckets - 1)];
    while (*cursor != slot) cursor = &m->e[*cursor].chain;
    *cursor = m->e[slot].chain;
}

static void memo_evict_oldest(Memo *m) {
    i64 slot = m->head;
    m->head = m->e[slot].next;
    if (m->head >= 0)
        m->e[m->head].prev = -1;
    else
        m->tail = -1;
    memo_unlink_bucket(m, slot);
    free(m->e[slot].key);
    m->e[slot].key = NULL;
    m->e[slot].chain = m->free_list;
    m->free_list = slot;
    m->count--;
}

static int memo_grow(Memo *m) {
    u64 nb = m->nbuckets * 2;
    i64 *buckets = (i64 *)malloc(nb * sizeof(i64));
    if (!buckets) return ERR_ALLOC;
    for (u64 b = 0; b < nb; b++) buckets[b] = -1;
    free(m->buckets);
    m->buckets = buckets;
    m->nbuckets = nb;
    for (i64 i = m->head; i >= 0; i = m->e[i].next) {
        u64 b = m->e[i].hash & (nb - 1);
        m->e[i].chain = m->buckets[b];
        m->buckets[b] = i;
    }
    return OK;
}

/* Insert a key known to be absent (Python: memo[key] = mu on a miss). */
static int memo_insert(Memo *m, const i64 *key, i64 klen, u64 h, i64 value) {
    if (m->count + 1 > (i64)(m->nbuckets - m->nbuckets / 4)) {
        if (memo_grow(m) != OK) return ERR_ALLOC;
    }
    i64 slot;
    if (m->free_list >= 0) {
        slot = m->free_list;
        m->free_list = m->e[slot].chain;
    } else {
        if (m->used == m->cap) {
            i64 cap = m->cap * 2;
            MEntry *e = (MEntry *)realloc(m->e, (size_t)cap * sizeof(MEntry));
            if (!e) return ERR_ALLOC;
            m->e = e;
            m->cap = cap;
        }
        slot = m->used++;
    }
    MEntry *en = &m->e[slot];
    en->key = (i64 *)malloc((size_t)klen * sizeof(i64));
    if (!en->key) return ERR_ALLOC;
    memcpy(en->key, key, (size_t)klen * sizeof(i64));
    en->klen = klen;
    en->hash = h;
    en->value = value;
    en->next = -1;
    en->prev = m->tail;
    if (m->tail >= 0)
        m->e[m->tail].next = slot;
    else
        m->head = slot;
    m->tail = slot;
    u64 b = h & (m->nbuckets - 1);
    en->chain = m->buckets[b];
    m->buckets[b] = slot;
    m->count++;
    return OK;
}

/* ------------------------------------------------------------------ */
/* ABI                                                                 */
/* ------------------------------------------------------------------ */

EXPORT i64 repro_abi(void) { return NATIVE_ABI_VERSION; }

/* cfg[] layout for repro_dfs. */
enum {
    CFG_N = 0,
    CFG_P,
    CFG_CURTAIL,
    CFG_ALPHA_BETA,
    CFG_EQUIVALENCE,
    CFG_LOWER_BOUNDS,
    CFG_DOMINANCE,
    CFG_CHEAPEST_FIRST,
    CFG_MAX_MEMO,
    CFG_HAS_DEADLINE,
    CFG_BUDGET, /* -1: no register budget */
    CFG_MAX_LATENCY,
    CFG_BEST_NOPS,
    CFG_OMEGA_CALLS,
    CFG_IMPROVEMENTS,
    CFG_LEN
};

/* stats[] layout for repro_dfs (prune kinds in telemetry order). */
enum {
    ST_OMEGA = 0,
    ST_IMPROVEMENTS,
    ST_COMPLETED,
    ST_TIMED_OUT,
    ST_MEMO_EVICTED,
    ST_IMPROVED, /* out_order/out_etas/out_issue are valid */
    ST_LEGALITY,
    ST_BOUNDS,
    ST_EQUIVALENCE,
    ST_ALPHA_BETA,
    ST_CURTAIL,
    ST_TIMEOUT,
    ST_DOMINANCE,
    ST_LEN
};

/* The pruned DFS of schedule_block (mirror of the reference rec()).
 *
 * CSR pairs (xxx_off has n+1 entries) carry the dense predecessor,
 * successor and register-operand lists.  pipe_last0/var_bound use the
 * NONE sentinel; deadline_rel is the remaining wall-clock budget in
 * seconds, measured from this call's entry (only read when
 * cfg[CFG_HAS_DEADLINE]).  Outputs: out_order/out_etas/out_issue hold
 * the best complete schedule found *here* (valid iff
 * stats[ST_IMPROVED]), stats the counters.
 */
EXPORT i64 repro_dfs(
    const i64 *cfg,
    const i64 *lat, const i64 *enq, const i64 *sig,
    const i64 *pred_off, const i64 *pred_lst,
    const i64 *succ_off, const i64 *succ_lst,
    const i64 *pipe_enq, const i64 *pipe_last0,
    const i64 *var_bound,
    const i64 *seed_at, const i64 *chain, const i64 *users0,
    const i64 *opnd_off, const i64 *opnd_lst, const i64 *produces,
    double deadline_rel,
    i64 *out_order, i64 *out_etas, i64 *out_issue, i64 *stats)
{
    const i64 n = cfg[CFG_N];
    const i64 P = cfg[CFG_P];
    const i64 curtail = cfg[CFG_CURTAIL];
    const int alpha_beta = cfg[CFG_ALPHA_BETA] != 0;
    const int equivalence = cfg[CFG_EQUIVALENCE] != 0;
    const int lower_bounds = cfg[CFG_LOWER_BOUNDS] != 0;
    const int dominance = cfg[CFG_DOMINANCE] != 0;
    const int cheapest_first = cfg[CFG_CHEAPEST_FIRST] != 0;
    const i64 max_memo = cfg[CFG_MAX_MEMO];
    const int has_deadline = cfg[CFG_HAS_DEADLINE] != 0;
    const i64 budget = cfg[CFG_BUDGET];
    const i64 max_latency = cfg[CFG_MAX_LATENCY];
    const double t0 = has_deadline ? now_sec() : 0.0;

    const i64 W = (n >> 6) + 1; /* always >= 1: no zero-size allocations */
    i64 rc = ERR_ALLOC;

    /* ---- allocations ---- */
    i64 *order = NULL, *etas = NULL, *issue = NULL;
    i64 *saved_p = NULL, *saved_v = NULL, *indeg = NULL;
    i64 *pipe_last = NULL, *users = NULL, *used_pipes = NULL;
    i64 *consumers_left = NULL;
    u64 *ready = NULL, *mask = NULL, *succ_bits = NULL;
    unsigned char *trivial = NULL;
    i64 *key_buf = NULL, *dang_k = NULL, *dang_s = NULL, *seen = NULL;
    Stack st = {0};
    Memo memo = {0};
    int memo_live = 0, stack_live = 0;

    order = (i64 *)malloc((size_t)n * sizeof(i64));
    etas = (i64 *)malloc((size_t)n * sizeof(i64));
    issue = (i64 *)calloc((size_t)n, sizeof(i64));
    saved_p = (i64 *)malloc((size_t)n * sizeof(i64));
    saved_v = (i64 *)malloc((size_t)n * sizeof(i64));
    indeg = (i64 *)malloc((size_t)n * sizeof(i64));
    pipe_last = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    users = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    used_pipes = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    ready = (u64 *)calloc((size_t)W, sizeof(u64));
    mask = (u64 *)calloc((size_t)W, sizeof(u64));
    succ_bits = (u64 *)calloc((size_t)(n * W), sizeof(u64));
    trivial = (unsigned char *)malloc((size_t)n);
    dang_k = (i64 *)malloc((size_t)(max_latency + 2) * sizeof(i64));
    dang_s = (i64 *)malloc((size_t)(max_latency + 2) * sizeof(i64));
    seen = (i64 *)malloc((size_t)n * sizeof(i64));
    /* Worst-case key: mask words + three length-prefixed segments. */
    key_buf = (i64 *)malloc(
        (size_t)(W + 3 + 2 * P + 2 * (max_latency + 2) + 2 * n) * sizeof(i64));
    if (!order || !etas || !issue || !saved_p || !saved_v || !indeg ||
        !pipe_last || !users || !used_pipes || !ready || !mask ||
        !succ_bits || !trivial || !dang_k || !dang_s || !seen || !key_buf)
        goto cleanup;
    if (budget >= 0) {
        consumers_left = (i64 *)calloc((size_t)n, sizeof(i64));
        if (!consumers_left) goto cleanup;
        for (i64 k = 0; k < n; k++)
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++)
                consumers_left[opnd_lst[j]]++;
    }
    if (stack_init(&st, n) != OK) goto cleanup;
    stack_live = 1;
    if (memo_init(&memo) != OK) goto cleanup;
    memo_live = 1;

    /* ---- static structure ---- */
    memcpy(pipe_last, pipe_last0, (size_t)P * sizeof(i64));
    memcpy(users, users0, (size_t)P * sizeof(i64));
    i64 n_used = 0;
    for (i64 p = 0; p < P; p++)
        if (users[p]) used_pipes[n_used++] = p;
    int has_vb = 0;
    for (i64 k = 0; k < n; k++)
        if (var_bound[k] != NONE) has_vb = 1;
    for (i64 k = 0; k < n; k++) {
        indeg[k] = pred_off[k + 1] - pred_off[k];
        if (indeg[k] == 0) bs_set(ready, k);
        for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++)
            bs_set(succ_bits + k * W, succ_lst[j]);
    }
    int any_trivial = 0;
    for (i64 k = 0; k < n; k++) {
        trivial[k] = (sig[k] < 0 && indeg[k] == 0) ? 1 : 0;
        if (trivial[k]) any_trivial = 1;
    }
    any_trivial = equivalence && any_trivial;

    /* ---- mutable search state ---- */
    i64 olen = 0, total_nops = 0, last_iss = -1, live_count = 0;
    i64 best_nops = cfg[CFG_BEST_NOPS];
    i64 omega_calls = cfg[CFG_OMEGA_CALLS];
    i64 improvements = cfg[CFG_IMPROVEMENTS];
    i64 improved = 0;
    i64 completed = 1, timed_out = 0;
    i64 n_legality = 0, n_bounds = 0, n_equivalence = 0, n_alpha_beta = 0;
    i64 n_dominance = 0, n_curtail = 0, n_timeout = 0, n_memo_evicted = 0;

    i64 cstart = 0, ccount = 0, cidx = 0;
    int at_root = 1;
    i64 pending = n;

    while (1) {
        if (pending >= 0) {
            /* ---- node entry: candidates + eta, then node-level
             * prunes in reference order ---- */
            i64 remaining = pending;
            pending = -1;
            if (at_root) {
                at_root = 0;
            } else {
                if (frame_push(&st, cstart, ccount, cidx) != OK)
                    goto cleanup;
            }
            i64 base = last_iss + 1;
            cstart = st.pool_len;
            ccount = 0;
            i64 lb = 0;
            if (pool_reserve(&st, remaining) != OK) goto cleanup;
            for (i64 w = 0; w < W; w++) {
                u64 rm = ready[w];
                while (rm) {
                    i64 k = (w << 6) + ctz64(rm);
                    rm &= rm - 1;
                    i64 e = base;
                    i64 p = sig[k];
                    if (p >= 0) {
                        i64 pl = pipe_last[p];
                        if (pl != NONE) {
                            i64 v = pl + enq[k];
                            if (v > e) e = v;
                        }
                    }
                    if (has_vb) {
                        i64 v = var_bound[k];
                        if (v != NONE && v > e) e = v;
                    }
                    for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++) {
                        i64 d = pred_lst[j];
                        i64 v = issue[d] + lat[d];
                        if (v > e) e = v;
                    }
                    i64 eta = e - base;
                    st.pool[st.pool_len].eta = eta;
                    st.pool[st.pool_len].seedp = seed_at[k];
                    st.pool[st.pool_len].k = k;
                    st.pool_len++;
                    ccount++;
                    if (lower_bounds) {
                        i64 gap = 1 + eta + chain[k] - remaining;
                        if (gap > lb) lb = gap;
                    }
                }
            }
            n_legality += remaining - ccount;
            cand_sort(st.pool + cstart, ccount, cheapest_first);
            cidx = 0;

            int pruned = 0;
            if (olen > 0) {
                i64 mu = total_nops;
                if (lower_bounds) {
                    i64 tl = base - 1;
                    for (i64 u = 0; u < n_used; u++) {
                        i64 p = used_pipes[u];
                        i64 ku = users[p];
                        if (ku) {
                            i64 pl = pipe_last[p];
                            i64 pe = pipe_enq[p];
                            i64 first = (pl == NONE) ? tl + 1 : pl + pe;
                            i64 gap = (first + (ku - 1) * pe) - (tl + remaining);
                            if (gap > lb) lb = gap;
                        }
                    }
                    if (mu + lb >= best_nops) {
                        n_bounds++;
                        pruned = 1;
                    }
                }
                if (!pruned && dominance) {
                    i64 tl = base - 1;
                    i64 klen = 0;
                    for (i64 w = 0; w < W; w++)
                        key_buf[klen++] = (i64)mask[w];
                    i64 np_at = klen++;
                    i64 cnt = 0;
                    for (i64 p = 0; p < P; p++) {
                        i64 pl = pipe_last[p];
                        if (pl != NONE && pl - tl + pipe_enq[p] > 1) {
                            key_buf[klen++] = p;
                            key_buf[klen++] = pl - tl;
                            cnt++;
                        }
                    }
                    key_buf[np_at] = cnt;
                    i64 nd = 0;
                    i64 from = olen > max_latency + 1 ? olen - (max_latency + 1)
                                                      : 0;
                    for (i64 q = from; q < olen; q++) {
                        i64 k = order[q];
                        i64 slack = issue[k] + lat[k] - (tl + 1);
                        if (slack > 0 && bs_escapes(succ_bits + k * W, mask, W)) {
                            dang_k[nd] = k;
                            dang_s[nd] = slack;
                            nd++;
                        }
                    }
                    for (i64 i = 1; i < nd; i++) { /* sort by k (unique) */
                        i64 xk = dang_k[i], xs = dang_s[i];
                        i64 j = i - 1;
                        while (j >= 0 && dang_k[j] > xk) {
                            dang_k[j + 1] = dang_k[j];
                            dang_s[j + 1] = dang_s[j];
                            j--;
                        }
                        dang_k[j + 1] = xk;
                        dang_s[j + 1] = xs;
                    }
                    key_buf[klen++] = nd;
                    for (i64 i = 0; i < nd; i++) {
                        key_buf[klen++] = dang_k[i];
                        key_buf[klen++] = dang_s[i];
                    }
                    i64 nr_at = klen++;
                    cnt = 0;
                    if (has_vb) {
                        for (i64 k = 0; k < n; k++) { /* ascending k */
                            i64 b = var_bound[k];
                            if (b != NONE && !bs_test(mask, k) && b > tl + 1) {
                                key_buf[klen++] = k;
                                key_buf[klen++] = b - (tl + 1);
                                cnt++;
                            }
                        }
                    }
                    key_buf[nr_at] = cnt;

                    u64 h = memo_hash(key_buf, klen);
                    i64 slot = memo_find(&memo, key_buf, klen, h);
                    if (slot >= 0) {
                        if (mu >= memo.e[slot].value) {
                            n_dominance++;
                            pruned = 1;
                        } else {
                            /* Tighter prefix: overwrite in place (keeps
                             * insertion position, exactly like dict
                             * assignment to an existing key). */
                            memo.e[slot].value = mu;
                        }
                    } else if (max_memo > 0) {
                        if (memo.count >= max_memo) {
                            memo_evict_oldest(&memo);
                            n_memo_evicted++;
                        }
                        if (memo_insert(&memo, key_buf, klen, h, mu) != OK)
                            goto cleanup;
                    }
                }
            }

            if (pruned) {
                ccount = 0;
                st.pool_len = cstart;
            } else if (any_trivial && ccount > 1) {
                i64 nseen = 0, wout = 0;
                for (i64 j = 0; j < ccount; j++) {
                    Cand c = st.pool[cstart + j];
                    if (trivial[c.k]) {
                        int dup = 0;
                        for (i64 s = 0; s < nseen; s++) {
                            if (memcmp(succ_bits + c.k * W,
                                       succ_bits + seen[s] * W,
                                       (size_t)W * sizeof(u64)) == 0) {
                                dup = 1;
                                break;
                            }
                        }
                        if (dup) {
                            n_equivalence++;
                            continue;
                        }
                        seen[nseen++] = c.k;
                    }
                    st.pool[cstart + wout] = c;
                    wout++;
                }
                ccount = wout;
                st.pool_len = cstart + ccount;
            }
        }

        if (cidx == ccount) {
            if (st.frames_len == 0) break;
            /* Close the candidate that opened this frame, undo it, and
             * resume the suspended parent frame. */
            i64 k = order[olen - 1];
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 s = succ_lst[j];
                if (indeg[s] == 0) bs_clear(ready, s);
                indeg[s]++;
            }
            bs_set(ready, k);
            bs_clear(mask, k);
            if (budget >= 0) {
                if (produces[k] && consumers_left[k] > 0) live_count--;
                for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                    i64 r = opnd_lst[j];
                    if (consumers_left[r] == 0) live_count++;
                    consumers_left[r]++;
                }
            }
            i64 p = sig[k];
            if (p >= 0) users[p]++;
            olen--;
            i64 e2 = etas[olen];
            total_nops -= e2;
            last_iss = issue[k] - e2 - 1;
            i64 sp = saved_p[olen];
            if (sp >= 0) pipe_last[sp] = saved_v[olen];
            st.pool_len = cstart;
            Frame f = st.frames[--st.frames_len];
            cstart = f.start;
            ccount = f.count;
            cidx = f.idx;
            continue;
        }
        Cand c = st.pool[cstart + cidx];
        cidx++;
        i64 eta = c.eta;
        i64 k = c.k;
        if (budget >= 0) {
            i64 freed = 0;
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++)
                if (consumers_left[opnd_lst[j]] == 1) freed++;
            if (live_count - freed + produces[k] > budget)
                continue; /* would not be allocatable: treat as illegal */
        }
        /* Step [4]: curtail-point truncation. */
        if (omega_calls >= curtail) {
            n_curtail++;
            completed = 0;
            break;
        }
        if (has_deadline && now_sec() - t0 > deadline_rel) {
            n_timeout++;
            timed_out = 1;
            completed = 0;
            break;
        }
        omega_calls++;
        /* Push k (eta cached from node entry; last_iss = -1 on an empty
         * order makes iss = eta, as Omega defines). */
        i64 iss = last_iss + 1 + eta;
        order[olen] = k;
        etas[olen] = eta;
        issue[k] = iss;
        total_nops += eta;
        last_iss = iss;
        i64 p = sig[k];
        if (p < 0) {
            saved_p[olen] = -1;
        } else {
            saved_p[olen] = p;
            saved_v[olen] = pipe_last[p];
            pipe_last[p] = iss;
            users[p]--;
        }
        olen++;
        if (budget >= 0) {
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                i64 r = opnd_lst[j];
                if (--consumers_left[r] == 0) live_count--;
            }
            if (produces[k] && consumers_left[k] > 0) live_count++;
        }
        i64 depth = olen;
        int done = 0;
        if (depth == n) {
            /* Step [3]: complete schedule; adopt if strictly better. */
            if (total_nops < best_nops) {
                best_nops = total_nops;
                memcpy(out_order, order, (size_t)n * sizeof(i64));
                memcpy(out_etas, etas, (size_t)n * sizeof(i64));
                for (i64 q = 0; q < n; q++) out_issue[q] = issue[order[q]];
                improvements++;
                improved = 1;
            }
            done = 1;
        } else if (alpha_beta && total_nops >= best_nops) {
            /* Step [6]: mu never decreases as a schedule grows. */
            n_alpha_beta++;
            done = 1;
        }
        if (done) {
            if (budget >= 0) {
                if (produces[k] && consumers_left[k] > 0) live_count--;
                for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                    i64 r = opnd_lst[j];
                    if (consumers_left[r] == 0) live_count++;
                    consumers_left[r]++;
                }
            }
            if (p >= 0) users[p]++;
            olen--;
            total_nops -= eta;
            last_iss = iss - eta - 1;
            i64 sp = saved_p[olen];
            if (sp >= 0) pipe_last[sp] = saved_v[olen];
        } else {
            bs_clear(ready, k);
            bs_set(mask, k);
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 s = succ_lst[j];
                if (--indeg[s] == 0) bs_set(ready, s);
            }
            pending = n - depth;
        }
    }

    stats[ST_OMEGA] = omega_calls;
    stats[ST_IMPROVEMENTS] = improvements;
    stats[ST_COMPLETED] = completed;
    stats[ST_TIMED_OUT] = timed_out;
    stats[ST_MEMO_EVICTED] = n_memo_evicted;
    stats[ST_IMPROVED] = improved;
    stats[ST_LEGALITY] = n_legality;
    stats[ST_BOUNDS] = n_bounds;
    stats[ST_EQUIVALENCE] = n_equivalence;
    stats[ST_ALPHA_BETA] = n_alpha_beta;
    stats[ST_CURTAIL] = n_curtail;
    stats[ST_TIMEOUT] = n_timeout;
    stats[ST_DOMINANCE] = n_dominance;
    rc = OK;

cleanup:
    if (memo_live) memo_free(&memo);
    if (stack_live) stack_free(&st);
    free(order);
    free(etas);
    free(issue);
    free(saved_p);
    free(saved_v);
    free(indeg);
    free(pipe_last);
    free(users);
    free(used_pipes);
    free(consumers_left);
    free(ready);
    free(mask);
    free(succ_bits);
    free(trivial);
    free(key_buf);
    free(dang_k);
    free(dang_s);
    free(seen);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Windowed split search (mirror of the reference _schedule_window).   */
/* ------------------------------------------------------------------ */

/* Shared flat timing state, carried across windows. */
typedef struct {
    i64 n, P;
    const i64 *lat, *enq, *sig;
    const i64 *pred_off, *pred_lst, *succ_off, *succ_lst;
    const i64 *var_bound;
    int has_vb;
    i64 *order, *etas, *issue, *sp, *sv, *pipe_last;
    i64 olen, total_nops;
} SState;

static i64 s_peek(const SState *s, i64 k) {
    i64 base = s->olen ? s->issue[s->order[s->olen - 1]] + 1 : 0;
    i64 e = base;
    i64 p = s->sig[k];
    if (p >= 0) {
        i64 pl = s->pipe_last[p];
        if (pl != NONE) {
            i64 v = pl + s->enq[k];
            if (v > e) e = v;
        }
    }
    if (s->has_vb) {
        i64 v = s->var_bound[k];
        if (v != NONE && v > e) e = v;
    }
    for (i64 j = s->pred_off[k]; j < s->pred_off[k + 1]; j++) {
        i64 d = s->pred_lst[j];
        i64 v = s->issue[d] + s->lat[d];
        if (v > e) e = v;
    }
    return e - base;
}

/* eta < 0 means "compute it" (etas are always >= 0). */
static void s_push(SState *s, i64 k, i64 eta) {
    if (eta < 0) eta = s_peek(s, k);
    i64 iss = s->olen ? s->issue[s->order[s->olen - 1]] + 1 + eta : eta;
    s->order[s->olen] = k;
    s->etas[s->olen] = eta;
    s->issue[k] = iss;
    s->total_nops += eta;
    i64 p = s->sig[k];
    if (p < 0) {
        s->sp[s->olen] = -1;
    } else {
        s->sp[s->olen] = p;
        s->sv[s->olen] = s->pipe_last[p];
        s->pipe_last[p] = iss;
    }
    s->olen++;
}

static void s_pop(SState *s) {
    s->olen--;
    s->total_nops -= s->etas[s->olen];
    i64 sp = s->sp[s->olen];
    if (sp >= 0) s->pipe_last[sp] = s->sv[s->olen];
}

/* cfg[] layout for repro_split. */
enum {
    SCFG_N = 0,
    SCFG_P,
    SCFG_WINDOW,
    SCFG_CURTAIL,
    SCFG_LEN
};

/* stats[] layout for repro_split. */
enum {
    SST_OMEGA = 0,
    SST_ALL_COMPLETED,
    SST_LEGALITY,
    SST_BOUNDS,
    SST_ALPHA_BETA,
    SST_CURTAIL,
    SST_LEN
};

EXPORT i64 repro_split(
    const i64 *cfg,
    const i64 *lat, const i64 *enq, const i64 *sig,
    const i64 *pred_off, const i64 *pred_lst,
    const i64 *succ_off, const i64 *succ_lst,
    const i64 *pipe_enq, const i64 *pipe_last0,
    const i64 *var_bound,
    const i64 *dense_seed,
    i64 *out_order, i64 *out_etas, i64 *out_issue, i64 *stats)
{
    (void)pipe_enq; /* the splitter has no pipeline-capacity bound */
    const i64 n = cfg[SCFG_N];
    const i64 P = cfg[SCFG_P];
    const i64 window = cfg[SCFG_WINDOW];
    const i64 curtail = cfg[SCFG_CURTAIL];
    const i64 W = (n >> 6) + 1; /* always >= 1: no zero-size allocations */
    i64 rc = ERR_ALLOC;

    SState s;
    s.n = n;
    s.P = P;
    s.lat = lat;
    s.enq = enq;
    s.sig = sig;
    s.pred_off = pred_off;
    s.pred_lst = pred_lst;
    s.succ_off = succ_off;
    s.succ_lst = succ_lst;
    s.var_bound = var_bound;
    s.has_vb = 0;
    for (i64 k = 0; k < n; k++)
        if (var_bound[k] != NONE) s.has_vb = 1;
    s.olen = 0;
    s.total_nops = 0;

    i64 *wseed = NULL, *windeg = NULL, *local_indeg = NULL;
    i64 *local_ready = NULL, *chain_w = NULL;
    i64 *wbest = NULL, *wgreedy = NULL;
    unsigned char *in_window = NULL;
    u64 *ready_mask = NULL;
    Stack st = {0};
    int stack_live = 0;

    s.order = (i64 *)malloc((size_t)n * sizeof(i64));
    s.etas = (i64 *)malloc((size_t)n * sizeof(i64));
    s.issue = (i64 *)calloc((size_t)n, sizeof(i64));
    s.sp = (i64 *)malloc((size_t)n * sizeof(i64));
    s.sv = (i64 *)malloc((size_t)n * sizeof(i64));
    s.pipe_last = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    wseed = (i64 *)calloc((size_t)n, sizeof(i64));
    windeg = (i64 *)calloc((size_t)n, sizeof(i64));
    local_indeg = (i64 *)calloc((size_t)n, sizeof(i64));
    local_ready = (i64 *)malloc((size_t)n * sizeof(i64));
    chain_w = (i64 *)calloc((size_t)n, sizeof(i64));
    wbest = (i64 *)malloc((size_t)n * sizeof(i64));
    wgreedy = (i64 *)malloc((size_t)n * sizeof(i64));
    in_window = (unsigned char *)calloc((size_t)n, 1);
    ready_mask = (u64 *)calloc((size_t)W, sizeof(u64));
    if (!s.order || !s.etas || !s.issue || !s.sp || !s.sv || !s.pipe_last ||
        !wseed || !windeg || !local_indeg || !local_ready || !chain_w ||
        !wbest || !wgreedy || !in_window || !ready_mask)
        goto cleanup;
    if (stack_init(&st, n) != OK) goto cleanup;
    stack_live = 1;
    memcpy(s.pipe_last, pipe_last0, (size_t)P * sizeof(i64));

    i64 omega_calls = 0;
    i64 all_completed = 1;
    i64 n_legality = 0, n_bounds = 0, n_alpha_beta = 0, n_curtail = 0;

    for (i64 w_start = 0; w_start < n; w_start += window) {
        const i64 *members = dense_seed + w_start;
        i64 wn = window < n - w_start ? window : n - w_start;

        /* ---- window setup (member set, window indegrees, chain) ---- */
        for (i64 i = 0; i < wn; i++) {
            in_window[members[i]] = 1;
            wseed[members[i]] = i;
        }
        memset(ready_mask, 0, (size_t)W * sizeof(u64));
        for (i64 i = 0; i < wn; i++) {
            i64 k = members[i];
            i64 d = 0;
            for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++)
                if (in_window[pred_lst[j]]) d++;
            windeg[k] = d;
            if (d == 0) bs_set(ready_mask, k);
        }
        /* Latency chains within the window: members are in seed
         * (topological) order, so a reverse scan sees inner successors
         * first. */
        for (i64 i = wn - 1; i >= 0; i--) {
            i64 k = members[i];
            i64 best = 0;
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 sx = succ_lst[j];
                if (in_window[sx]) {
                    i64 v = lat[k] + chain_w[sx];
                    if (v > best) best = v;
                }
            }
            chain_w[k] = best;
        }
        i64 base_nops = s.total_nops;
        i64 entry_len = s.olen;

        /* ---- incumbents: seed slice and greedy order (n each) ---- */
        for (i64 i = 0; i < wn; i++) s_push(&s, members[i], -1);
        i64 best_nops = s.total_nops - base_nops;
        for (i64 i = 0; i < wn; i++) s_pop(&s);
        memcpy(wbest, members, (size_t)wn * sizeof(i64));

        {
            i64 nready = 0;
            for (i64 i = 0; i < wn; i++) {
                i64 k = members[i];
                local_indeg[k] = windeg[k];
                if (windeg[k] == 0) local_ready[nready++] = k;
            }
            i64 gn = 0;
            while (nready) {
                i64 pick_at = 0;
                i64 pick_eta = s_peek(&s, local_ready[0]);
                i64 pick_seed = wseed[local_ready[0]];
                for (i64 i = 1; i < nready; i++) {
                    i64 e = s_peek(&s, local_ready[i]);
                    i64 sd = wseed[local_ready[i]];
                    if (e < pick_eta || (e == pick_eta && sd < pick_seed)) {
                        pick_at = i;
                        pick_eta = e;
                        pick_seed = sd;
                    }
                }
                i64 pick = local_ready[pick_at];
                local_ready[pick_at] = local_ready[--nready];
                s_push(&s, pick, -1);
                wgreedy[gn++] = pick;
                for (i64 j = succ_off[pick]; j < succ_off[pick + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx] && --local_indeg[sx] == 0)
                        local_ready[nready++] = sx;
                }
            }
            i64 greedy_nops = s.total_nops - base_nops;
            for (i64 i = 0; i < gn; i++) s_pop(&s);
            if (greedy_nops < best_nops) {
                best_nops = greedy_nops;
                memcpy(wbest, wgreedy, (size_t)wn * sizeof(i64));
            }
        }
        i64 wcalls = 2 * wn;
        i64 wcomplete = 1;

        /* ---- the window DFS ---- */
        st.pool_len = 0;
        st.frames_len = 0;
        i64 cstart = 0, ccount = 0, cidx = 0;
        int have_frame = 0;
        i64 expand_remaining = wn;

        while (1) {
            if (!have_frame || expand_remaining >= 0) {
                /* wexpand(expand_remaining) */
                i64 remaining = expand_remaining;
                expand_remaining = -1;
                cstart = st.pool_len;
                ccount = 0;
                if (pool_reserve(&st, remaining) != OK) goto cleanup;
                i64 base = s.olen ? s.issue[s.order[s.olen - 1]] + 1 : 0;
                for (i64 w = 0; w < W; w++) {
                    u64 rm = ready_mask[w];
                    while (rm) {
                        i64 k = (w << 6) + ctz64(rm);
                        rm &= rm - 1;
                        i64 e = base;
                        i64 p = sig[k];
                        if (p >= 0) {
                            i64 pl = s.pipe_last[p];
                            if (pl != NONE) {
                                i64 v = pl + enq[k];
                                if (v > e) e = v;
                            }
                        }
                        if (s.has_vb) {
                            i64 v = var_bound[k];
                            if (v != NONE && v > e) e = v;
                        }
                        for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++) {
                            i64 d = pred_lst[j];
                            i64 v = s.issue[d] + lat[d];
                            if (v > e) e = v;
                        }
                        st.pool[st.pool_len].eta = e - base;
                        st.pool[st.pool_len].seedp = wseed[k];
                        st.pool[st.pool_len].k = k;
                        st.pool_len++;
                        ccount++;
                    }
                }
                n_legality += remaining - ccount;
                cand_sort(st.pool + cstart, ccount, 1);
                cidx = 0;
                if (s.olen > entry_len) {
                    i64 window_nops = s.total_nops - base_nops;
                    i64 lb = 0;
                    for (i64 j = 0; j < ccount; j++) {
                        i64 gap = 1 + st.pool[cstart + j].eta +
                                  chain_w[st.pool[cstart + j].k] - remaining;
                        if (gap > lb) lb = gap;
                    }
                    if (window_nops + lb >= best_nops) {
                        n_bounds++;
                        ccount = 0;
                        st.pool_len = cstart;
                    }
                }
                have_frame = 1;
            }

            if (cidx == ccount) {
                if (st.frames_len == 0) break;
                i64 k = s.order[s.olen - 1];
                for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx]) {
                        if (windeg[sx] == 0) bs_clear(ready_mask, sx);
                        windeg[sx]++;
                    }
                }
                bs_set(ready_mask, k);
                s_pop(&s);
                st.pool_len = cstart;
                Frame f = st.frames[--st.frames_len];
                cstart = f.start;
                ccount = f.count;
                cidx = f.idx;
                continue;
            }
            Cand c = st.pool[cstart + cidx];
            cidx++;
            if (wcalls >= curtail) {
                n_curtail++;
                wcomplete = 0;
                /* Unwind the partial window: the shared flat state must
                 * be back at window entry before commit. */
                while (s.olen > entry_len) s_pop(&s);
                break;
            }
            wcalls++;
            s_push(&s, c.k, c.eta);
            i64 window_nops = s.total_nops - base_nops;
            i64 depth = s.olen - entry_len;
            int done = 0;
            if (depth == wn) {
                if (window_nops < best_nops) {
                    best_nops = window_nops;
                    memcpy(wbest, s.order + s.olen - wn,
                           (size_t)wn * sizeof(i64));
                }
                done = 1;
            } else if (window_nops >= best_nops) {
                n_alpha_beta++;
                done = 1;
            }
            if (done) {
                s_pop(&s);
            } else {
                bs_clear(ready_mask, c.k);
                for (i64 j = succ_off[c.k]; j < succ_off[c.k + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx] && --windeg[sx] == 0)
                        bs_set(ready_mask, sx);
                }
                if (frame_push(&st, cstart, ccount, cidx) != OK)
                    goto cleanup;
                expand_remaining = wn - depth;
            }
        }

        omega_calls += wcalls;
        all_completed = all_completed && wcomplete;

        /* ---- commit the window's best order onto the shared state ---- */
        for (i64 i = 0; i < wn; i++) s_push(&s, wbest[i], -1);
        for (i64 i = 0; i < wn; i++) in_window[members[i]] = 0;
    }

    memcpy(out_order, s.order, (size_t)n * sizeof(i64));
    memcpy(out_etas, s.etas, (size_t)n * sizeof(i64));
    for (i64 q = 0; q < n; q++) out_issue[q] = s.issue[s.order[q]];
    stats[SST_OMEGA] = omega_calls;
    stats[SST_ALL_COMPLETED] = all_completed;
    stats[SST_LEGALITY] = n_legality;
    stats[SST_BOUNDS] = n_bounds;
    stats[SST_ALPHA_BETA] = n_alpha_beta;
    stats[SST_CURTAIL] = n_curtail;
    rc = OK;

cleanup:
    if (stack_live) stack_free(&st);
    free(s.order);
    free(s.etas);
    free(s.issue);
    free(s.sp);
    free(s.sv);
    free(s.pipe_last);
    free(wseed);
    free(windeg);
    free(local_indeg);
    free(local_ready);
    free(chain_w);
    free(wbest);
    free(wgreedy);
    free(in_window);
    free(ready_mask);
    return rc;
}
