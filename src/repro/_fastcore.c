/* repro._fast: the optional compiled execution backend.
 *
 * Two entry points, each a faithful transcription of a pure-Python hot
 * loop (bit-identical by construction and enforced by the differential
 * harness, tests/core/test_batched_vs_trampoline.py):
 *
 *   run_batched(kernel)       <->  Kernel._run_batched
 *   machine_run(machine, n)   <->  Machine._run_batch
 *
 * The transcription discipline:
 *
 *   - Every counter/statistic accumulates in C integers and folds into
 *     the Python objects exactly where the pure loop's ``finally``
 *     blocks fold theirs (quantum boundary / run exit), including on
 *     exceptional exits, so crash-context identity holds.
 *   - All simulator *policy* stays in Python: trap handlers, context
 *     switches, scheduling policy, retirement, blocking bookkeeping
 *     and the trace-event fallbacks are called as the same bound
 *     methods the pure loop calls.
 *   - Error construction is delegated to repro.runtime._fastsupport so
 *     messages (and ReproError context) are byte-identical.
 *   - Geometry (wf.cwp, tw.depth/resident) is read and written through
 *     the same attributes at the same points as the pure loop -- no
 *     shadow state that a trap handler could make stale.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* ---------------------------------------------------------------------
 * Interned attribute names.
 * ------------------------------------------------------------------ */

#define ATTR_NAMES(X) \
    X(cpu) X(wf) X(map) X(counters) X(scheme) X(ready) X(current) \
    X(last_suspended) X(verify_registers) X(_profiler) X(_tracing) \
    X(_steps) X(_progress) X(_save_instr_cost) X(_restore_instr_cost) \
    X(_regs) X(_wim) X(_kind) X(_tid) X(cwp) X(global_regs) \
    X(_above) X(_below) X(_in_base) X(_out_base) \
    X(handle_overflow) X(handle_underflow) X(context_switch) X(retire) \
    X(_queue) X(_fifo) X(faults) X(sample_slackness) \
    X(slackness_samples) X(push_woken) X(push_yielded) X(popleft) \
    X(extend) X(windows) X(gen_stack) X(resume_value) X(pending) \
    X(state) X(result) X(name) X(tid) X(join_waiters) X(blocked_on) \
    X(blocks) X(calls) X(returns) X(flush_on_switch) X(start_root) \
    X(depth) X(resident) X(stat_saves) X(stat_restores) \
    X(_data) X(closed) X(capacity) X(read_waiters) X(write_waiters) \
    X(bytes_written) X(bytes_read) \
    X(cycles) X(args) X(factory) X(stream) X(max_bytes) X(data) \
    X(flush) X(thread) \
    X(compute_cycles) X(call_cycles) X(saves) X(restores) \
    X(_cd) X(_check) X(_block) X(_spawn) X(_do_close) \
    X(_wake_readers) X(_wake_writers) \
    X(pc) X(cc) X(instructions) X(program) X(memory) X(_dispatch) \
    X(op) X(operands) X(label) X(kind) X(bank) X(index) X(value) \
    X(offset) X(exit_value)

#define DECLARE_ATTR(n) static PyObject *a_##n;
ATTR_NAMES(DECLARE_ATTR)
#undef DECLARE_ATTR

/* op classes (repro.runtime.ops) */
static PyObject *TickT, *CallT, *ReadT, *WriteT, *ReadLineT,
    *CloseStreamT, *YieldCPUT, *FlushHintT, *SpawnT, *JoinT;
/* thread-state / occupancy string constants */
static PyObject *S_READY, *S_RUNNING, *S_DONE, *S_FREE, *S_FRAME;
/* pending-op kind strings + the frame-signature tag */
static PyObject *K_write, *K_read, *K_readline, *K_join, *S_sig, *K_imm;
/* _fastsupport raise helpers */
static PyObject *sup_finish_depth, *sup_bad_signature, *sup_restore_depth,
    *sup_return_corrupt, *sup_overflow_invalid, *sup_arg_corrupt,
    *sup_write_closed, *sup_readline_too_long, *sup_join_self,
    *sup_bad_op, *sup_unknown_pending;
/* machine side */
static PyObject *EXIT_BUDGET_O;
static PyObject *MachineFaultT;
static PyObject *py_read_register, *py_write_register;
static PyObject *op_codes;        /* opcode str -> small int (inlined ops) */
static PyObject *long_zero, *long_one;

static int fast_initialized = 0;

/* Inlined machine opcode codes (everything else delegates to the
 * Python dispatch table). */
enum {
    OPC_ADD = 1, OPC_SUB, OPC_AND, OPC_OR, OPC_XOR, OPC_SLL, OPC_SRL,
    OPC_SMUL,
    OPC_BE = 10, OPC_BNE, OPC_BG, OPC_BGE, OPC_BL, OPC_BLE,
    OPC_MOV = 16, OPC_CMP, OPC_BA, OPC_NOP, OPC_CALL, OPC_RETL,
    OPC_LD, OPC_ST
};

static int
ensure_init(void)
{
    PyObject *m = NULL;

    if (fast_initialized)
        return 0;

#define INTERN_ATTR(n) \
    if (!(a_##n = PyUnicode_InternFromString(#n))) return -1;
    ATTR_NAMES(INTERN_ATTR)
#undef INTERN_ATTR

    if (!(K_write = PyUnicode_InternFromString("write"))) return -1;
    if (!(K_read = PyUnicode_InternFromString("read"))) return -1;
    if (!(K_readline = PyUnicode_InternFromString("readline"))) return -1;
    if (!(K_join = PyUnicode_InternFromString("join"))) return -1;
    if (!(S_sig = PyUnicode_InternFromString("sig"))) return -1;
    if (!(K_imm = PyUnicode_InternFromString("imm"))) return -1;
    if (!(long_zero = PyLong_FromLong(0))) return -1;
    if (!(long_one = PyLong_FromLong(1))) return -1;

    m = PyImport_ImportModule("repro.runtime.ops");
    if (m == NULL)
        return -1;
#define GET(var, name) \
    if (!(var = PyObject_GetAttrString(m, name))) { Py_DECREF(m); return -1; }
    GET(TickT, "Tick") GET(CallT, "Call") GET(ReadT, "Read")
    GET(WriteT, "Write") GET(ReadLineT, "ReadLine")
    GET(CloseStreamT, "CloseStream") GET(YieldCPUT, "YieldCPU")
    GET(FlushHintT, "FlushHint") GET(SpawnT, "Spawn") GET(JoinT, "Join")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.runtime.thread");
    if (m == NULL)
        return -1;
    GET(S_READY, "READY") GET(S_RUNNING, "RUNNING") GET(S_DONE, "DONE")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.windows.occupancy");
    if (m == NULL)
        return -1;
    GET(S_FREE, "FREE") GET(S_FRAME, "FRAME")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.runtime._fastsupport");
    if (m == NULL)
        return -1;
    GET(sup_finish_depth, "raise_finish_depth")
    GET(sup_bad_signature, "raise_bad_signature")
    GET(sup_restore_depth, "raise_restore_depth")
    GET(sup_return_corrupt, "raise_return_corrupt")
    GET(sup_overflow_invalid, "raise_overflow_invalid")
    GET(sup_arg_corrupt, "raise_arg_corrupt")
    GET(sup_write_closed, "raise_write_closed")
    GET(sup_readline_too_long, "raise_readline_too_long")
    GET(sup_join_self, "raise_join_self")
    GET(sup_bad_op, "raise_bad_op")
    GET(sup_unknown_pending, "raise_unknown_pending")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.runtime.batch");
    if (m == NULL)
        return -1;
    GET(EXIT_BUDGET_O, "EXIT_BUDGET")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.isa.machine");
    if (m == NULL)
        return -1;
    GET(MachineFaultT, "MachineFault")
    Py_DECREF(m);

    m = PyImport_ImportModule("repro.isa.registers");
    if (m == NULL)
        return -1;
    GET(py_read_register, "read_register")
    GET(py_write_register, "write_register")
    Py_DECREF(m);
#undef GET

    op_codes = PyDict_New();
    if (op_codes == NULL)
        return -1;
    {
        static const struct { const char *name; int code; } table[] = {
            {"add", OPC_ADD}, {"sub", OPC_SUB}, {"and", OPC_AND},
            {"or", OPC_OR}, {"xor", OPC_XOR}, {"sll", OPC_SLL},
            {"srl", OPC_SRL}, {"smul", OPC_SMUL},
            {"be", OPC_BE}, {"bne", OPC_BNE}, {"bg", OPC_BG},
            {"bge", OPC_BGE}, {"bl", OPC_BL}, {"ble", OPC_BLE},
            {"mov", OPC_MOV}, {"cmp", OPC_CMP}, {"ba", OPC_BA},
            {"nop", OPC_NOP}, {"call", OPC_CALL}, {"retl", OPC_RETL},
            {"ld", OPC_LD}, {"st", OPC_ST},
            {NULL, 0},
        };
        int i;
        for (i = 0; table[i].name != NULL; i++) {
            PyObject *code = PyLong_FromLong(table[i].code);
            if (code == NULL)
                return -1;
            if (PyDict_SetItemString(op_codes, table[i].name, code) < 0) {
                Py_DECREF(code);
                return -1;
            }
            Py_DECREF(code);
        }
    }

    fast_initialized = 1;
    return 0;
}

/* ---------------------------------------------------------------------
 * Small attribute helpers.
 * ------------------------------------------------------------------ */

static int
get_ssize(PyObject *o, PyObject *name, Py_ssize_t *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    Py_ssize_t r;
    if (v == NULL)
        return -1;
    r = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
set_ssize(PyObject *o, PyObject *name, Py_ssize_t x)
{
    PyObject *v = PyLong_FromSsize_t(x);
    int r;
    if (v == NULL)
        return -1;
    r = PyObject_SetAttr(o, name, v);
    Py_DECREF(v);
    return r;
}

/* attr += delta (through PyNumber_Add: counters may be arbitrary ints) */
static int
add_ssize_attr(PyObject *o, PyObject *name, long long delta)
{
    PyObject *cur, *d, *sum;
    int r;
    if (delta == 0)
        return 0;
    cur = PyObject_GetAttr(o, name);
    if (cur == NULL)
        return -1;
    d = PyLong_FromLongLong(delta);
    if (d == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    sum = PyNumber_Add(cur, d);
    Py_DECREF(cur);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    r = PyObject_SetAttr(o, name, sum);
    Py_DECREF(sum);
    return r;
}

static int
get_truth(PyObject *o, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(o, name);
    int r;
    if (v == NULL)
        return -1;
    r = PyObject_IsTrue(v);
    Py_DECREF(v);
    return r;
}

/* list[i] = v without stealing the caller's reference */
static int
list_set(PyObject *list, Py_ssize_t i, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(list, i, v);
}

/* Call a _fastsupport raise helper (always raises); returns -1. */
static int
sup_raise(PyObject *fn, ...)
{
    va_list va;
    PyObject *argv[8];
    Py_ssize_t argc = 0, i;
    PyObject *res;
    va_start(va, fn);
    for (;;) {
        PyObject *o = va_arg(va, PyObject *);
        if (o == NULL)
            break;
        argv[argc++] = o;
    }
    va_end(va);
    res = PyObject_Vectorcall(fn, argv, (size_t)argc, NULL);
    for (i = 0; i < argc; i++)
        ;
    if (res != NULL) {
        /* helpers raise unconditionally; reaching here is a bug */
        Py_DECREF(res);
        PyErr_SetString(PyExc_SystemError,
                        "_fastsupport helper returned without raising");
    }
    return -1;
}

/* ---------------------------------------------------------------------
 * run_batched context + stream/wake primitives.
 * ------------------------------------------------------------------ */

typedef struct {
    PyObject *kernel;
    PyObject *cpu, *wf, *regs, *wim, *kinds, *tids;
    PyObject *counters, *prof;        /* prof NULL when no profiler */
    PyObject *scheme;
    PyObject *m_overflow, *m_underflow, *m_switch, *m_retire;
    PyObject *m_push_woken, *m_push_yielded, *m_popleft, *m_qextend;
    PyObject *m_wake_readers, *m_wake_writers, *m_do_close, *m_block,
        *m_spawn;
    PyObject *ready, *queue;
    int verify, fifo_wake;
    long long save_cost, restore_cost;
    Py_ssize_t n;
    Py_ssize_t *above, *below, *in_base, *out_base;  /* one allocation */
    /* run-global accumulators (outer finally) */
    long long steps, progress, compute, call_cyc, saves_total,
        restores_total;
    long long prof_cd;
} Ctx;

/* Wake every thread on `waiters` (a list).  Fast path: plain FIFO, no
 * faults, tracing off -> set state and batch-extend the deque.
 * Fallback: the kernel's _wake_readers/_wake_writers bound method. */
static int
wake_list(Ctx *c, PyObject *stream, PyObject *waiters, PyObject *fallback)
{
    int tracing;
    PyObject *res;
    if (c->fifo_wake) {
        tracing = get_truth(c->kernel, a__tracing);
        if (tracing < 0)
            return -1;
        if (!tracing) {
            Py_ssize_t i, n = PyList_GET_SIZE(waiters);
            for (i = 0; i < n; i++) {
                PyObject *w = PyList_GET_ITEM(waiters, i);
                if (PyObject_SetAttr(w, a_blocked_on, Py_None) < 0)
                    return -1;
                if (PyObject_SetAttr(w, a_state, S_READY) < 0)
                    return -1;
            }
            res = PyObject_CallOneArg(c->m_qextend, waiters);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return PyList_SetSlice(waiters, 0,
                                   PyList_GET_SIZE(waiters), NULL);
        }
    }
    res = PyObject_CallOneArg(fallback, stream);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Wake a stream's readers/writers when the list attribute is nonempty;
 * `which` is a_read_waiters or a_write_waiters. */
static int
wake_stream(Ctx *c, PyObject *stream, PyObject *which)
{
    PyObject *waiters = PyObject_GetAttr(stream, which);
    int r = 0;
    if (waiters == NULL)
        return -1;
    if (PyList_GET_SIZE(waiters) > 0)
        r = wake_list(c, stream, waiters,
                      which == a_read_waiters ? c->m_wake_readers
                                              : c->m_wake_writers);
    Py_DECREF(waiters);
    return r;
}

/* Is stream.<which> nonempty?  (-1 on error) */
static int
waiters_nonempty(PyObject *stream, PyObject *which)
{
    PyObject *waiters = PyObject_GetAttr(stream, which);
    int r;
    if (waiters == NULL)
        return -1;
    r = PyList_GET_SIZE(waiters) > 0;
    Py_DECREF(waiters);
    return r;
}

/* bytearray helpers: buffer pointers are re-fetched around every
 * resize (and never held across Python calls). */

static int
ba_extend(PyObject *ba, const char *src, Py_ssize_t k)
{
    Py_ssize_t old = PyByteArray_GET_SIZE(ba);
    if (PyByteArray_Resize(ba, old + k) < 0)
        return -1;
    memcpy(PyByteArray_AS_STRING(ba) + old, src, (size_t)k);
    return 0;
}

static int
ba_delfront(PyObject *ba, Py_ssize_t k)
{
    Py_ssize_t n = PyByteArray_GET_SIZE(ba);
    char *b = PyByteArray_AS_STRING(ba);
    memmove(b, b + k, (size_t)(n - k));
    return PyByteArray_Resize(ba, n - k);
}

/* One write attempt against a stream (Stream.push inlined, matching
 * both the op-site and the pending-resume site of the pure loop).
 * Returns -1 on error; on success *out_offset is the new offset and
 * *done says whether the write completed. */
static int
stream_write_step(Ctx *c, PyObject *stream, PyObject *data,
                  Py_ssize_t offset, Py_ssize_t *out_offset, int *done)
{
    PyObject *sdata;
    Py_ssize_t capacity, space, want, total, k;
    int closed, r;
    Py_buffer view;

    closed = get_truth(stream, a_closed);
    if (closed < 0)
        return -1;
    if (closed)
        return sup_raise(sup_write_closed, stream, NULL);
    sdata = PyObject_GetAttr(stream, a__data);
    if (sdata == NULL)
        return -1;
    if (!PyByteArray_CheckExact(sdata)) {
        Py_DECREF(sdata);
        PyErr_SetString(PyExc_TypeError, "stream._data is not a bytearray");
        return -1;
    }
    if (get_ssize(stream, a_capacity, &capacity) < 0) {
        Py_DECREF(sdata);
        return -1;
    }
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0) {
        Py_DECREF(sdata);
        return -1;
    }
    total = view.len;
    space = capacity - PyByteArray_GET_SIZE(sdata);
    want = total - offset;
    k = 0;
    if (space > 0 && want > 0)
        k = space < want ? space : want;
    if (k > 0) {
        if (ba_extend(sdata, (const char *)view.buf + offset, k) < 0)
            goto fail;
        if (add_ssize_attr(stream, a_bytes_written, k) < 0)
            goto fail;
        offset += k;
        r = waiters_nonempty(stream, a_read_waiters);
        if (r < 0)
            goto fail;
        if (r && wake_stream(c, stream, a_read_waiters) < 0)
            goto fail;
    }
    PyBuffer_Release(&view);
    Py_DECREF(sdata);
    *out_offset = offset;
    *done = offset >= total;
    return 0;
fail:
    PyBuffer_Release(&view);
    Py_DECREF(sdata);
    return -1;
}

/* Stream.pull inlined: take up to `take` bytes; bumps bytes_read.
 * Returns the new bytes object (never NULL on success) and the pulled
 * count via *npulled. */
static PyObject *
stream_pull_c(Ctx *c, PyObject *stream, PyObject *sdata, Py_ssize_t take,
              Py_ssize_t *npulled)
{
    Py_ssize_t avail = PyByteArray_GET_SIZE(sdata);
    PyObject *data;
    if (take >= avail) {
        take = avail;
        data = PyBytes_FromStringAndSize(PyByteArray_AS_STRING(sdata),
                                         avail);
        if (data == NULL)
            return NULL;
        if (PyByteArray_Resize(sdata, 0) < 0) {
            Py_DECREF(data);
            return NULL;
        }
    }
    else {
        data = PyBytes_FromStringAndSize(PyByteArray_AS_STRING(sdata),
                                         take);
        if (data == NULL)
            return NULL;
        if (ba_delfront(sdata, take) < 0) {
            Py_DECREF(data);
            return NULL;
        }
    }
    if (take > 0 && add_ssize_attr(stream, a_bytes_read, take) < 0) {
        Py_DECREF(data);
        return NULL;
    }
    *npulled = take;
    return data;
}

/* has_line/at_eof/pull_line inlined.  Returns 1 with *line set when a
 * line (possibly empty, at EOF) is ready, 0 when the caller must
 * block, -1 on error (including the line-too-long fault). */
static int
stream_readline_c(Ctx *c, PyObject *stream, PyObject *sdata,
                  PyObject **line)
{
    Py_ssize_t n = PyByteArray_GET_SIZE(sdata);
    const char *buf = PyByteArray_AS_STRING(sdata);
    const char *p = (const char *)memchr(buf, '\n', (size_t)n);
    Py_ssize_t capacity;
    int closed;

    if (p != NULL) {
        Py_ssize_t idx = (p - buf) + 1;
        *line = PyBytes_FromStringAndSize(buf, idx);
        if (*line == NULL)
            return -1;
        if (ba_delfront(sdata, idx) < 0 ||
                add_ssize_attr(stream, a_bytes_read, idx) < 0) {
            Py_CLEAR(*line);
            return -1;
        }
        return 1;
    }
    closed = get_truth(stream, a_closed);
    if (closed < 0)
        return -1;
    if (closed) {
        *line = PyBytes_FromStringAndSize(buf, n);
        if (*line == NULL)
            return -1;
        if (n > 0) {
            if (PyByteArray_Resize(sdata, 0) < 0 ||
                    add_ssize_attr(stream, a_bytes_read, n) < 0) {
                Py_CLEAR(*line);
                return -1;
            }
        }
        return 1;
    }
    if (get_ssize(stream, a_capacity, &capacity) < 0)
        return -1;
    if (n >= capacity)
        return sup_raise(sup_readline_too_long, stream, NULL);
    return 0;
}

/* Block the current thread on its pending op: delegates to the
 * kernel's _block (identical bookkeeping to the pure loop's inlined
 * block sites, including the trace emit when tracing flipped on
 * mid-quantum). */
static int
block_thread(Ctx *c, PyObject *thread, PyObject *pending)
{
    PyObject *res;
    if (PyObject_SetAttr(thread, a_pending, pending) < 0)
        return -1;
    res = PyObject_CallOneArg(c->m_block, thread);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* strings compare by identity first (kind strings are interned) */
static int
str_eq(PyObject *a, PyObject *b)
{
    if (a == b)
        return 1;
    return PyObject_RichCompareBool(a, b, Py_EQ);
}

/* max_bytes as Py_ssize_t, clamped on overflow (a huge take pulls
 * everything, same as the pure comparison `take >= avail`). */
static Py_ssize_t
as_take(PyObject *o, int *err)
{
    Py_ssize_t v = PyLong_AsSsize_t(o);
    if (v == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Clear();
            return PY_SSIZE_T_MAX;
        }
        *err = 1;
    }
    return v;
}

/* ---------------------------------------------------------------------
 * run_batched(kernel): Kernel._run_batched, compiled.
 * ------------------------------------------------------------------ */

static PyObject *
fast_run_batched(PyObject *self, PyObject *kernel)
{
    Ctx c;
    PyObject *ret = NULL;
    PyObject *tmp = NULL, *wmap = NULL, *m_prof_check = NULL;
    int run_fail = 0;

    if (ensure_init() < 0)
        return NULL;
    memset(&c, 0, sizeof(c));
    c.kernel = kernel;

#define FETCH(dst, o, n) \
    do { (dst) = PyObject_GetAttr((o), (n)); \
         if ((dst) == NULL) goto cleanup; } while (0)

    FETCH(c.cpu, kernel, a_cpu);
    FETCH(c.wf, c.cpu, a_wf);
    FETCH(c.regs, c.wf, a__regs);
    FETCH(c.wim, c.wf, a__wim);
    if (!PyList_CheckExact(c.regs) || !PyByteArray_CheckExact(c.wim)) {
        PyErr_SetString(PyExc_TypeError,
                        "window file storage has unexpected types");
        goto cleanup;
    }
    FETCH(wmap, c.cpu, a_map);
    FETCH(c.kinds, wmap, a__kind);
    FETCH(c.tids, wmap, a__tid);
    if (!PyList_CheckExact(c.kinds) || !PyList_CheckExact(c.tids)) {
        PyErr_SetString(PyExc_TypeError,
                        "occupancy map storage has unexpected types");
        goto cleanup;
    }
    FETCH(c.counters, c.cpu, a_counters);
    FETCH(c.scheme, kernel, a_scheme);
    FETCH(c.m_overflow, c.scheme, a_handle_overflow);
    FETCH(c.m_underflow, c.scheme, a_handle_underflow);
    FETCH(c.m_switch, c.scheme, a_context_switch);
    FETCH(c.m_retire, c.scheme, a_retire);
    FETCH(c.ready, kernel, a_ready);
    FETCH(c.queue, c.ready, a__queue);
    FETCH(c.m_popleft, c.queue, a_popleft);
    FETCH(c.m_qextend, c.queue, a_extend);
    FETCH(c.m_push_woken, c.ready, a_push_woken);
    FETCH(c.m_push_yielded, c.ready, a_push_yielded);
    FETCH(c.m_wake_readers, kernel, a__wake_readers);
    FETCH(c.m_wake_writers, kernel, a__wake_writers);
    FETCH(c.m_do_close, kernel, a__do_close);
    FETCH(c.m_block, kernel, a__block);
    FETCH(c.m_spawn, kernel, a__spawn);

    c.verify = get_truth(kernel, a_verify_registers);
    if (c.verify < 0)
        goto cleanup;
    {
        Py_ssize_t sc, rc;
        if (get_ssize(c.cpu, a__save_instr_cost, &sc) < 0 ||
                get_ssize(c.cpu, a__restore_instr_cost, &rc) < 0)
            goto cleanup;
        c.save_cost = sc;
        c.restore_cost = rc;
    }
    {
        int fifo = get_truth(c.ready, a__fifo);
        if (fifo < 0)
            goto cleanup;
        FETCH(tmp, c.ready, a_faults);
        c.fifo_wake = fifo && tmp == Py_None;
        Py_CLEAR(tmp);
    }
    FETCH(tmp, kernel, a__profiler);
    if (tmp == Py_None)
        Py_CLEAR(tmp);
    else {
        Py_ssize_t cd;
        c.prof = tmp;
        tmp = NULL;
        FETCH(m_prof_check, c.prof, a__check);
        if (get_ssize(c.prof, a__cd, &cd) < 0)
            goto cleanup;
        c.prof_cd = cd;
    }
    {
        /* copy the cyclic-geometry tables into C arrays (they are
         * immutable for the life of the window file) */
        PyObject *la = NULL, *lb = NULL, *li = NULL, *lo = NULL;
        Py_ssize_t i;
        FETCH(la, c.wf, a__above);
        lb = PyObject_GetAttr(c.wf, a__below);
        li = lb ? PyObject_GetAttr(c.wf, a__in_base) : NULL;
        lo = li ? PyObject_GetAttr(c.wf, a__out_base) : NULL;
        if (lo == NULL || !PyList_CheckExact(la) ||
                !PyList_CheckExact(lb) || !PyList_CheckExact(li) ||
                !PyList_CheckExact(lo)) {
            if (lo != NULL)
                PyErr_SetString(PyExc_TypeError,
                                "geometry tables have unexpected types");
            Py_XDECREF(la); Py_XDECREF(lb); Py_XDECREF(li); Py_XDECREF(lo);
            goto cleanup;
        }
        c.n = PyList_GET_SIZE(la);
        c.above = PyMem_New(Py_ssize_t, (size_t)(4 * c.n));
        if (c.above == NULL) {
            PyErr_NoMemory();
            Py_DECREF(la); Py_DECREF(lb); Py_DECREF(li); Py_DECREF(lo);
            goto cleanup;
        }
        c.below = c.above + c.n;
        c.in_base = c.above + 2 * c.n;
        c.out_base = c.above + 3 * c.n;
        for (i = 0; i < c.n; i++) {
            c.above[i] = PyLong_AsSsize_t(PyList_GET_ITEM(la, i));
            c.below[i] = PyLong_AsSsize_t(PyList_GET_ITEM(lb, i));
            c.in_base[i] = PyLong_AsSsize_t(PyList_GET_ITEM(li, i));
            c.out_base[i] = PyLong_AsSsize_t(PyList_GET_ITEM(lo, i));
        }
        Py_DECREF(la); Py_DECREF(lb); Py_DECREF(li); Py_DECREF(lo);
        if (PyErr_Occurred())
            goto cleanup;
    }

    /* ---- the fused dispatch loop: one iteration per quantum ---- */
    for (;;) {
        PyObject *thread = NULL, *tw = NULL, *gen_stack = NULL;
        PyObject *tid_obj = NULL, *resume = NULL, *gen = NULL;
        PyObject *pending = NULL;
        long long n_saves = 0, n_restores = 0;
        int qfail = 0;

#define FAIL_Q() do { qfail = 1; goto q_fold; } while (0)
#define FETCH_Q(dst, o, n) \
        do { (dst) = PyObject_GetAttr((o), (n)); \
             if ((dst) == NULL) FAIL_Q(); } while (0)
#define CALL1_Q(m, arg) \
        do { PyObject *_r = PyObject_CallOneArg((m), (arg)); \
             if (_r == NULL) FAIL_Q(); Py_DECREF(_r); } while (0)
#define SETATTR_Q(o, n, v) \
        do { if (PyObject_SetAttr((o), (n), (v)) < 0) FAIL_Q(); } while (0)
#define TOP_GEN(dst) \
        do { (dst) = PyList_GET_ITEM(gen_stack, \
                                     PyList_GET_SIZE(gen_stack) - 1); \
             Py_INCREF(dst); } while (0)

        thread = PyObject_GetAttr(kernel, a_current);
        if (thread == NULL)
            goto fail_run;
        if (thread == Py_None) {
            Py_DECREF(thread);
            PyErr_SetString(PyExc_RuntimeError,
                            "run_batched with no current thread");
            goto fail_run;
        }
        tw = PyObject_GetAttr(thread, a_windows);
        gen_stack = tw ? PyObject_GetAttr(thread, a_gen_stack) : NULL;
        tid_obj = gen_stack ? PyObject_GetAttr(thread, a_tid) : NULL;
        resume = tid_obj ? PyObject_GetAttr(thread, a_resume_value) : NULL;
        if (resume == NULL || !PyList_CheckExact(gen_stack)) {
            if (resume != NULL)
                PyErr_SetString(PyExc_TypeError,
                                "gen_stack is not a list");
            Py_XDECREF(thread); Py_XDECREF(tw); Py_XDECREF(gen_stack);
            Py_XDECREF(tid_obj); Py_XDECREF(resume);
            goto fail_run;
        }
        c.steps += 1;   /* the entry iteration (compat parity) */

        /* -- entry with an in-flight op (_continue_pending, inlined) -- */
        FETCH_Q(pending, thread, a_pending);
        if (pending == Py_None) {
            TOP_GEN(gen);
        }
        else {
            PyObject *kind, *strm;
            int is;
            if (!PyTuple_CheckExact(pending) ||
                    PyTuple_GET_SIZE(pending) < 2) {
                PyErr_SetString(PyExc_TypeError,
                                "pending op is not a tuple");
                FAIL_Q();
            }
            kind = PyTuple_GET_ITEM(pending, 0);
            strm = PyTuple_GET_ITEM(pending, 1);
            if ((is = str_eq(kind, K_write)) < 0)
                FAIL_Q();
            if (is) {
                PyObject *data = PyTuple_GET_ITEM(pending, 2);
                Py_ssize_t offset, newoff;
                int done, err = 0;
                offset = as_take(PyTuple_GET_ITEM(pending, 3), &err);
                if (err)
                    FAIL_Q();
                if (stream_write_step(&c, strm, data, offset,
                                      &newoff, &done) < 0)
                    FAIL_Q();
                if (done) {
                    SETATTR_Q(thread, a_pending, Py_None);
                    Py_SETREF(resume, Py_NewRef(Py_None));
                    c.progress += 1;
                    TOP_GEN(gen);
                }
                else {
                    PyObject *np = Py_BuildValue("(OOOn)", K_write, strm,
                                                 data, newoff);
                    if (np == NULL)
                        FAIL_Q();
                    if (PyObject_SetAttr(thread, a_pending, np) < 0) {
                        Py_DECREF(np);
                        FAIL_Q();
                    }
                    Py_DECREF(np);
                }
            }
            else if ((is = str_eq(kind, K_read)) != 0) {
                PyObject *sdata;
                int fire;
                if (is < 0)
                    FAIL_Q();
                FETCH_Q(sdata, strm, a__data);
                if (!PyByteArray_CheckExact(sdata)) {
                    Py_DECREF(sdata);
                    PyErr_SetString(PyExc_TypeError,
                                    "stream._data is not a bytearray");
                    FAIL_Q();
                }
                fire = PyByteArray_GET_SIZE(sdata) > 0;
                if (!fire) {
                    fire = get_truth(strm, a_closed);
                    if (fire < 0) {
                        Py_DECREF(sdata);
                        FAIL_Q();
                    }
                }
                if (fire) {
                    Py_ssize_t take, npulled;
                    int err = 0, w;
                    PyObject *data;
                    take = as_take(PyTuple_GET_ITEM(pending, 2), &err);
                    if (err) {
                        Py_DECREF(sdata);
                        FAIL_Q();
                    }
                    data = stream_pull_c(&c, strm, sdata, take, &npulled);
                    Py_DECREF(sdata);
                    if (data == NULL)
                        FAIL_Q();
                    if (npulled > 0) {
                        w = waiters_nonempty(strm, a_write_waiters);
                        if (w < 0 || (w && wake_stream(
                                &c, strm, a_write_waiters) < 0)) {
                            Py_DECREF(data);
                            FAIL_Q();
                        }
                    }
                    SETATTR_Q(thread, a_pending, Py_None);
                    Py_SETREF(resume, data);
                    c.progress += 1;
                    TOP_GEN(gen);
                }
                else
                    Py_DECREF(sdata);
            }
            else if ((is = str_eq(kind, K_readline)) != 0) {
                PyObject *sdata, *line = NULL;
                int r;
                if (is < 0)
                    FAIL_Q();
                FETCH_Q(sdata, strm, a__data);
                if (!PyByteArray_CheckExact(sdata)) {
                    Py_DECREF(sdata);
                    PyErr_SetString(PyExc_TypeError,
                                    "stream._data is not a bytearray");
                    FAIL_Q();
                }
                r = stream_readline_c(&c, strm, sdata, &line);
                Py_DECREF(sdata);
                if (r < 0)
                    FAIL_Q();
                if (r == 1) {
                    if (PyBytes_GET_SIZE(line) > 0) {
                        int w = waiters_nonempty(strm, a_write_waiters);
                        if (w < 0 || (w && wake_stream(
                                &c, strm, a_write_waiters) < 0)) {
                            Py_DECREF(line);
                            FAIL_Q();
                        }
                    }
                    SETATTR_Q(thread, a_pending, Py_None);
                    Py_SETREF(resume, line);
                    c.progress += 1;
                    TOP_GEN(gen);
                }
            }
            else if ((is = str_eq(kind, K_join)) != 0) {
                PyObject *st;
                int done_t;
                if (is < 0)
                    FAIL_Q();
                FETCH_Q(st, strm, a_state);
                done_t = str_eq(st, S_DONE);
                Py_DECREF(st);
                if (done_t < 0)
                    FAIL_Q();
                if (done_t) {
                    PyObject *res_v;
                    FETCH_Q(res_v, strm, a_result);
                    SETATTR_Q(thread, a_pending, Py_None);
                    Py_SETREF(resume, res_v);
                    c.progress += 1;
                    TOP_GEN(gen);
                }
            }
            else {
                sup_raise(sup_unknown_pending, kind, NULL);
                FAIL_Q();
            }
            if (gen == NULL) {
                /* still blocked: re-block without entering the batch */
                CALL1_Q(c.m_block, thread);
            }
        }
        Py_CLEAR(pending);

        /* -- the batch: send until a batch-exit event -- */
        while (gen != NULL) {
            PyObject *result = NULL, *cmd;
            PyTypeObject *t;
            PySendResult sr = PyIter_Send(gen, resume, &result);

            if (sr == PYGEN_ERROR)
                FAIL_Q();

            if (sr == PYGEN_RETURN) {
                PyObject *value = result;       /* owned */
                Py_ssize_t gl = PyList_GET_SIZE(gen_stack);
                Py_ssize_t cwp, depth, target, newcwp;
                PyObject *got;

                if (PyList_SetSlice(gen_stack, gl - 1, gl, NULL) < 0) {
                    Py_DECREF(value);
                    FAIL_Q();
                }
                c.progress += 1;
                if (PyList_GET_SIZE(gen_stack) == 0) {
                    /* thread finished (EXIT_DONE) */
                    PyObject *jw;
                    Py_ssize_t i, nw;
                    if (c.verify) {
                        if (get_ssize(tw, a_depth, &depth) < 0) {
                            Py_DECREF(value);
                            FAIL_Q();
                        }
                        if (depth != 1) {
                            Py_DECREF(value);
                            sup_raise(sup_finish_depth, thread, tw, NULL);
                            FAIL_Q();
                        }
                    }
                    if (PyObject_SetAttr(thread, a_result, value) < 0 ||
                            PyObject_SetAttr(thread, a_state,
                                             S_DONE) < 0) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                    Py_DECREF(value);
                    CALL1_Q(c.m_retire, tw);
                    SETATTR_Q(kernel, a_current, Py_None);
                    FETCH_Q(jw, thread, a_join_waiters);
                    nw = PyList_GET_SIZE(jw);
                    for (i = 0; i < nw; i++) {
                        PyObject *w = PyList_GET_ITEM(jw, i);
                        if (PyObject_SetAttr(w, a_blocked_on,
                                             Py_None) < 0) {
                            Py_DECREF(jw);
                            FAIL_Q();
                        }
                        {
                            PyObject *r2 = PyObject_CallOneArg(
                                c.m_push_woken, w);
                            if (r2 == NULL) {
                                Py_DECREF(jw);
                                FAIL_Q();
                            }
                            Py_DECREF(r2);
                        }
                    }
                    if (PyList_SetSlice(jw, 0, PyList_GET_SIZE(jw),
                                        NULL) < 0) {
                        Py_DECREF(jw);
                        FAIL_Q();
                    }
                    Py_DECREF(jw);
                    Py_CLEAR(gen);
                    break;
                }
                /* procedure return: restore (WindowCPU.restore inlined) */
                n_restores += 1;
                if (get_ssize(c.wf, a_cwp, &cwp) < 0 ||
                        get_ssize(tw, a_depth, &depth) < 0) {
                    Py_DECREF(value);
                    FAIL_Q();
                }
                if (c.verify) {
                    PyObject *sig = PyList_GET_ITEM(
                        c.regs, c.in_base[cwp] + 8);
                    PyObject *expected = Py_BuildValue(
                        "(OOn)", S_sig, tid_obj, depth);
                    int eq;
                    if (expected == NULL) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                    eq = PyObject_RichCompareBool(sig, expected, Py_EQ);
                    Py_DECREF(expected);
                    if (eq < 0) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                    if (!eq) {
                        Py_DECREF(value);
                        sup_raise(sup_bad_signature, thread, tw, sig,
                                  NULL);
                        FAIL_Q();
                    }
                }
                /* the return value travels through the in/out overlap */
                if (list_set(c.regs, c.in_base[cwp], value) < 0) {
                    Py_DECREF(value);
                    FAIL_Q();
                }
                if (depth <= 1) {
                    Py_DECREF(value);
                    sup_raise(sup_restore_depth, tw, NULL);
                    FAIL_Q();
                }
                c.call_cyc += c.restore_cost;
                target = c.below[cwp];
                if (PyByteArray_AS_STRING(c.wim)[target]) {
                    /* underflow: in-place restore; the CWP stays */
                    PyObject *r2 = PyObject_CallOneArg(c.m_underflow, tw);
                    if (r2 == NULL) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                    Py_DECREF(r2);
                }
                else {
                    if (list_set(c.kinds, cwp, S_FREE) < 0 ||
                            list_set(c.tids, cwp, Py_None) < 0 ||
                            set_ssize(c.wf, a_cwp, target) < 0 ||
                            set_ssize(tw, a_cwp, target) < 0 ||
                            add_ssize_attr(tw, a_resident, -1) < 0 ||
                            set_ssize(tw, a_depth, depth - 1) < 0) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                }
                if (get_ssize(c.wf, a_cwp, &newcwp) < 0) {
                    Py_DECREF(value);
                    FAIL_Q();
                }
                got = PyList_GET_ITEM(c.regs, c.out_base[newcwp]);
                if (c.verify && got != value) {
                    int ne = PyObject_RichCompareBool(got, value, Py_NE);
                    if (ne < 0) {
                        Py_DECREF(value);
                        FAIL_Q();
                    }
                    if (ne) {
                        Py_DECREF(value);
                        sup_raise(sup_return_corrupt, thread, tw, got,
                                  value, NULL);
                        FAIL_Q();
                    }
                }
                Py_INCREF(got);
                Py_SETREF(resume, got);
                Py_DECREF(value);
                {
                    PyObject *top;
                    TOP_GEN(top);
                    Py_SETREF(gen, top);
                }
                c.steps += 1;
                continue;
            }

            /* PYGEN_NEXT: an op was yielded */
            cmd = result;
            Py_SETREF(resume, Py_NewRef(Py_None));
            t = Py_TYPE(cmd);

            if ((PyObject *)t == TickT) {
                PyObject *cy;
                long long v;
                FETCH_Q(cy, cmd, a_cycles);
                v = PyLong_AsLongLong(cy);
                Py_DECREF(cy);
                if (v == -1 && PyErr_Occurred()) {
                    Py_DECREF(cmd);
                    FAIL_Q();
                }
                c.compute += v;
                c.progress += 1;
                Py_DECREF(cmd);
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == CallT) {
                PyObject *args, *factory, *newgen;
                Py_ssize_t cwp, target, na, ncopy, i, depth_now;
                c.progress += 1;
                FETCH_Q(args, cmd, a_args);
                if (!PyTuple_CheckExact(args)) {
                    PyObject *ta = PySequence_Tuple(args);
                    Py_DECREF(args);
                    if (ta == NULL) {
                        Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    args = ta;
                }
                na = PyTuple_GET_SIZE(args);
                ncopy = na < 8 ? na : 8;
                if (get_ssize(c.wf, a_cwp, &cwp) < 0) {
                    Py_DECREF(args); Py_DECREF(cmd);
                    FAIL_Q();
                }
                if (c.verify) {
                    Py_ssize_t ob = c.out_base[cwp];
                    for (i = 0; i < ncopy; i++) {
                        if (list_set(c.regs, ob + i,
                                     PyTuple_GET_ITEM(args, i)) < 0) {
                            Py_DECREF(args); Py_DECREF(cmd);
                            FAIL_Q();
                        }
                    }
                }
                /* WindowCPU.save, inlined */
                n_saves += 1;
                c.call_cyc += c.save_cost;
                target = c.above[cwp];
                if (PyByteArray_AS_STRING(c.wim)[target]) {
                    PyObject *r2 = PyObject_CallOneArg(c.m_overflow, tw);
                    Py_ssize_t cwp2;
                    if (r2 == NULL) {
                        Py_DECREF(args); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(r2);
                    if (get_ssize(c.wf, a_cwp, &cwp2) < 0) {
                        Py_DECREF(args); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    target = c.above[cwp2];
                    if (PyByteArray_AS_STRING(c.wim)[target]) {
                        PyObject *to = PyLong_FromSsize_t(target);
                        if (to != NULL) {
                            sup_raise(sup_overflow_invalid, to, tw, NULL);
                            Py_DECREF(to);
                        }
                        Py_DECREF(args); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                }
                if (set_ssize(c.wf, a_cwp, target) < 0 ||
                        set_ssize(tw, a_cwp, target) < 0 ||
                        add_ssize_attr(tw, a_resident, 1) < 0 ||
                        add_ssize_attr(tw, a_depth, 1) < 0 ||
                        list_set(c.kinds, target, S_FRAME) < 0 ||
                        list_set(c.tids, target, tid_obj) < 0) {
                    Py_DECREF(args); Py_DECREF(cmd);
                    FAIL_Q();
                }
                if (c.verify) {
                    Py_ssize_t ib = c.in_base[target];
                    if (get_ssize(tw, a_depth, &depth_now) < 0) {
                        Py_DECREF(args); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    for (i = 0; i < ncopy; i++) {
                        PyObject *a = PyTuple_GET_ITEM(args, i);
                        PyObject *got = PyList_GET_ITEM(c.regs, ib + i);
                        if (got != a) {
                            int ne = PyObject_RichCompareBool(got, a,
                                                              Py_NE);
                            if (ne < 0) {
                                Py_DECREF(args); Py_DECREF(cmd);
                                FAIL_Q();
                            }
                            if (ne) {
                                PyObject *io = PyLong_FromSsize_t(i);
                                if (io != NULL) {
                                    sup_raise(sup_arg_corrupt, io,
                                              thread, tw, got, a, NULL);
                                    Py_DECREF(io);
                                }
                                Py_DECREF(args); Py_DECREF(cmd);
                                FAIL_Q();
                            }
                        }
                    }
                    {
                        PyObject *sig = Py_BuildValue(
                            "(OOn)", S_sig, tid_obj, depth_now);
                        if (sig == NULL ||
                                list_set(c.regs, ib + 8, sig) < 0) {
                            Py_XDECREF(sig);
                            Py_DECREF(args); Py_DECREF(cmd);
                            FAIL_Q();
                        }
                        Py_DECREF(sig);
                    }
                }
                FETCH_Q(factory, cmd, a_factory);
                newgen = PyObject_Call(factory, args, NULL);
                Py_DECREF(factory);
                Py_DECREF(args);
                Py_DECREF(cmd);
                if (newgen == NULL)
                    FAIL_Q();
                if (PyList_Append(gen_stack, newgen) < 0) {
                    Py_DECREF(newgen);
                    FAIL_Q();
                }
                Py_SETREF(gen, newgen);
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == ReadT) {
                PyObject *strm, *sdata, *mb;
                int fire;
                FETCH_Q(strm, cmd, a_stream);
                c.steps += 1;   /* the attempt iteration */
                sdata = PyObject_GetAttr(strm, a__data);
                if (sdata == NULL || !PyByteArray_CheckExact(sdata)) {
                    if (sdata != NULL) {
                        Py_DECREF(sdata);
                        PyErr_SetString(PyExc_TypeError,
                                        "stream._data is not a bytearray");
                    }
                    Py_DECREF(strm); Py_DECREF(cmd);
                    FAIL_Q();
                }
                fire = PyByteArray_GET_SIZE(sdata) > 0;
                if (!fire) {
                    fire = get_truth(strm, a_closed);
                    if (fire < 0) {
                        Py_DECREF(sdata); Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                }
                FETCH_Q(mb, cmd, a_max_bytes);
                if (fire) {
                    Py_ssize_t take, npulled;
                    int err = 0;
                    PyObject *data;
                    take = as_take(mb, &err);
                    Py_DECREF(mb);
                    if (err) {
                        Py_DECREF(sdata); Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    data = stream_pull_c(&c, strm, sdata, take, &npulled);
                    Py_DECREF(sdata);
                    if (data == NULL) {
                        Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    if (npulled > 0) {
                        int w = waiters_nonempty(strm, a_write_waiters);
                        if (w < 0 || (w && wake_stream(
                                &c, strm, a_write_waiters) < 0)) {
                            Py_DECREF(data); Py_DECREF(strm);
                            Py_DECREF(cmd);
                            FAIL_Q();
                        }
                    }
                    c.progress += 1;
                    Py_SETREF(resume, data);
                    Py_DECREF(strm); Py_DECREF(cmd);
                    /* completion shares the next send's step */
                    continue;
                }
                Py_DECREF(sdata);
                {
                    PyObject *pend = PyTuple_Pack(3, K_read, strm, mb);
                    Py_DECREF(mb);
                    if (pend == NULL) {
                        Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    if (block_thread(&c, thread, pend) < 0) {
                        Py_DECREF(pend); Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(pend);
                }
                Py_DECREF(strm); Py_DECREF(cmd);
                Py_CLEAR(gen);
                break;      /* EXIT_BLOCKED */
            }

            if ((PyObject *)t == WriteT) {
                PyObject *strm, *data;
                Py_ssize_t newoff;
                int done;
                FETCH_Q(strm, cmd, a_stream);
                data = PyObject_GetAttr(cmd, a_data);
                if (data == NULL) {
                    Py_DECREF(strm); Py_DECREF(cmd);
                    FAIL_Q();
                }
                c.steps += 1;
                if (stream_write_step(&c, strm, data, 0,
                                      &newoff, &done) < 0) {
                    Py_DECREF(data); Py_DECREF(strm); Py_DECREF(cmd);
                    FAIL_Q();
                }
                if (done) {
                    c.progress += 1;
                    Py_DECREF(data); Py_DECREF(strm); Py_DECREF(cmd);
                    continue;
                }
                {
                    PyObject *pend = Py_BuildValue("(OOOn)", K_write,
                                                   strm, data, newoff);
                    if (pend == NULL ||
                            block_thread(&c, thread, pend) < 0) {
                        Py_XDECREF(pend);
                        Py_DECREF(data); Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(pend);
                }
                Py_DECREF(data); Py_DECREF(strm); Py_DECREF(cmd);
                Py_CLEAR(gen);
                break;      /* EXIT_BLOCKED */
            }

            if ((PyObject *)t == ReadLineT) {
                PyObject *strm, *sdata, *line = NULL;
                int r;
                FETCH_Q(strm, cmd, a_stream);
                c.steps += 1;
                sdata = PyObject_GetAttr(strm, a__data);
                if (sdata == NULL || !PyByteArray_CheckExact(sdata)) {
                    if (sdata != NULL) {
                        Py_DECREF(sdata);
                        PyErr_SetString(PyExc_TypeError,
                                        "stream._data is not a bytearray");
                    }
                    Py_DECREF(strm); Py_DECREF(cmd);
                    FAIL_Q();
                }
                r = stream_readline_c(&c, strm, sdata, &line);
                Py_DECREF(sdata);
                if (r < 0) {
                    Py_DECREF(strm); Py_DECREF(cmd);
                    FAIL_Q();
                }
                if (r == 0) {
                    PyObject *pend = PyTuple_Pack(2, K_readline, strm);
                    if (pend == NULL ||
                            block_thread(&c, thread, pend) < 0) {
                        Py_XDECREF(pend);
                        Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(pend);
                    Py_DECREF(strm); Py_DECREF(cmd);
                    Py_CLEAR(gen);
                    break;  /* EXIT_BLOCKED */
                }
                if (PyBytes_GET_SIZE(line) > 0) {
                    int w = waiters_nonempty(strm, a_write_waiters);
                    if (w < 0 || (w && wake_stream(
                            &c, strm, a_write_waiters) < 0)) {
                        Py_DECREF(line); Py_DECREF(strm); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                }
                c.progress += 1;
                Py_SETREF(resume, line);
                Py_DECREF(strm); Py_DECREF(cmd);
                continue;
            }

            if ((PyObject *)t == CloseStreamT) {
                PyObject *strm;
                FETCH_Q(strm, cmd, a_stream);
                {
                    PyObject *r2 = PyObject_CallOneArg(c.m_do_close,
                                                       strm);
                    Py_DECREF(strm);
                    if (r2 == NULL) {
                        Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(r2);
                }
                Py_DECREF(cmd);
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == YieldCPUT) {
                Py_ssize_t qn = PyObject_Size(c.queue);
                if (qn < 0) {
                    Py_DECREF(cmd);
                    FAIL_Q();
                }
                Py_DECREF(cmd);
                if (qn > 0) {
                    CALL1_Q(c.m_push_yielded, thread);
                    SETATTR_Q(kernel, a_last_suspended, thread);
                    SETATTR_Q(kernel, a_current, Py_None);
                    Py_CLEAR(gen);
                    break;  /* EXIT_YIELDED */
                }
                /* nobody else runnable: keep going, no switch, no cost */
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == FlushHintT) {
                PyObject *fl;
                FETCH_Q(fl, cmd, a_flush);
                if (PyObject_SetAttr(thread, a_flush_on_switch, fl) < 0) {
                    Py_DECREF(fl); Py_DECREF(cmd);
                    FAIL_Q();
                }
                Py_DECREF(fl);
                Py_DECREF(cmd);
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == SpawnT) {
                PyObject *factory, *sargs, *sname, *r2;
                FETCH_Q(factory, cmd, a_factory);
                sargs = PyObject_GetAttr(cmd, a_args);
                sname = sargs ? PyObject_GetAttr(cmd, a_name) : NULL;
                if (sname == NULL) {
                    Py_DECREF(factory); Py_XDECREF(sargs);
                    Py_DECREF(cmd);
                    FAIL_Q();
                }
                r2 = PyObject_CallFunctionObjArgs(c.m_spawn, factory,
                                                  sargs, sname, NULL);
                Py_DECREF(factory); Py_DECREF(sargs); Py_DECREF(sname);
                Py_DECREF(cmd);
                if (r2 == NULL)
                    FAIL_Q();
                Py_SETREF(resume, r2);
                c.progress += 1;
                c.steps += 1;
                continue;
            }

            if ((PyObject *)t == JoinT) {
                PyObject *tgt, *st;
                int done_t;
                FETCH_Q(tgt, cmd, a_thread);
                if (tgt == thread) {
                    Py_DECREF(tgt); Py_DECREF(cmd);
                    sup_raise(sup_join_self, thread, NULL);
                    FAIL_Q();
                }
                c.steps += 1;
                st = PyObject_GetAttr(tgt, a_state);
                if (st == NULL) {
                    Py_DECREF(tgt); Py_DECREF(cmd);
                    FAIL_Q();
                }
                done_t = str_eq(st, S_DONE);
                Py_DECREF(st);
                if (done_t < 0) {
                    Py_DECREF(tgt); Py_DECREF(cmd);
                    FAIL_Q();
                }
                if (done_t) {
                    PyObject *res_v = PyObject_GetAttr(tgt, a_result);
                    if (res_v == NULL) {
                        Py_DECREF(tgt); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    c.progress += 1;
                    Py_SETREF(resume, res_v);
                    Py_DECREF(tgt); Py_DECREF(cmd);
                    continue;
                }
                {
                    PyObject *pend = PyTuple_Pack(2, K_join, tgt);
                    if (pend == NULL ||
                            block_thread(&c, thread, pend) < 0) {
                        Py_XDECREF(pend);
                        Py_DECREF(tgt); Py_DECREF(cmd);
                        FAIL_Q();
                    }
                    Py_DECREF(pend);
                }
                Py_DECREF(tgt); Py_DECREF(cmd);
                Py_CLEAR(gen);
                break;      /* EXIT_BLOCKED */
            }

            /* unknown op */
            sup_raise(sup_bad_op, thread, cmd, NULL);
            Py_DECREF(cmd);
            FAIL_Q();
        }

        /* -- quantum boundary: fold per-thread statistics -- */
    q_fold:
        {
            PyObject *et = NULL, *ev = NULL, *tb = NULL;
            int fold_bad = 0;
            if (qfail)
                PyErr_Fetch(&et, &ev, &tb);
            if (resume != NULL &&
                    PyObject_SetAttr(thread, a_resume_value, resume) < 0)
                fold_bad = 1;
            if (!fold_bad && n_saves) {
                c.saves_total += n_saves;
                if (add_ssize_attr(tw, a_stat_saves, n_saves) < 0 ||
                        add_ssize_attr(thread, a_calls, n_saves) < 0)
                    fold_bad = 1;
            }
            if (!fold_bad && n_restores) {
                c.restores_total += n_restores;
                if (add_ssize_attr(tw, a_stat_restores, n_restores) < 0 ||
                        add_ssize_attr(thread, a_returns,
                                       n_restores) < 0)
                    fold_bad = 1;
            }
            if (!fold_bad && c.prof != NULL) {
                c.prof_cd -= 1;
                if (c.prof_cd <= 0) {
                    /* the profiler reads counters.total_cycles, so the
                     * cycle accumulators fold right before the check */
                    if (add_ssize_attr(c.counters, a_compute_cycles,
                                       c.compute) < 0 ||
                            add_ssize_attr(c.counters, a_call_cycles,
                                           c.call_cyc) < 0)
                        fold_bad = 1;
                    else {
                        PyObject *r2;
                        c.compute = 0;
                        c.call_cyc = 0;
                        r2 = PyObject_CallFunctionObjArgs(
                            m_prof_check, thread, Py_None, c.counters,
                            NULL);
                        if (r2 == NULL)
                            fold_bad = 1;
                        else {
                            Py_ssize_t cd;
                            Py_DECREF(r2);
                            if (get_ssize(c.prof, a__cd, &cd) < 0)
                                fold_bad = 1;
                            else
                                c.prof_cd = cd;
                        }
                    }
                }
            }
            if (qfail) {
                if (fold_bad)
                    PyErr_Clear();  /* keep the in-flight error */
                PyErr_Restore(et, ev, tb);
            }
            else if (fold_bad)
                qfail = 1;
        }
        Py_XDECREF(gen);
        Py_XDECREF(resume);
        Py_XDECREF(pending);
        Py_XDECREF(tid_obj);
        Py_XDECREF(gen_stack);
        Py_XDECREF(tw);
        Py_XDECREF(thread);
        if (qfail)
            goto fail_run;

        /* -- dispatch the next thread without leaving the frame -- */
        {
            int tr = get_truth(kernel, a__tracing);
            Py_ssize_t qn;
            PyObject *nxt, *out, *nw;
            if (tr < 0)
                goto fail_run;
            if (tr)
                goto done_run;  /* subscriber attached: compat loop */
            qn = PyObject_Size(c.queue);
            if (qn < 0)
                goto fail_run;
            if (qn == 0)
                goto done_run;  /* all done, or deadlock (outer loop) */
            {
                int ss = get_truth(c.ready, a_sample_slackness);
                if (ss < 0)
                    goto fail_run;
                if (ss) {
                    PyObject *samples = PyObject_GetAttr(
                        c.ready, a_slackness_samples);
                    PyObject *v;
                    if (samples == NULL)
                        goto fail_run;
                    v = PyLong_FromSsize_t(qn - 1);
                    if (v == NULL || PyList_Append(samples, v) < 0) {
                        Py_XDECREF(v);
                        Py_DECREF(samples);
                        goto fail_run;
                    }
                    Py_DECREF(v);
                    Py_DECREF(samples);
                }
            }
            nxt = PyObject_CallNoArgs(c.m_popleft);
            if (nxt == NULL)
                goto fail_run;
            nw = PyObject_GetAttr(nxt, a_windows);
            out = nw ? PyObject_GetAttr(kernel, a_last_suspended) : NULL;
            if (out == NULL) {
                Py_XDECREF(nw);
                Py_DECREF(nxt);
                goto fail_run;
            }
            if (out == Py_None) {
                PyObject *r2 = PyObject_CallFunctionObjArgs(
                    c.m_switch, Py_None, nw, Py_False, NULL);
                if (r2 == NULL) {
                    Py_DECREF(out); Py_DECREF(nw); Py_DECREF(nxt);
                    goto fail_run;
                }
                Py_DECREF(r2);
            }
            else {
                PyObject *ow = PyObject_GetAttr(out, a_windows);
                PyObject *fl = ow ? PyObject_GetAttr(
                    out, a_flush_on_switch) : NULL;
                PyObject *r2 = fl ? PyObject_CallFunctionObjArgs(
                    c.m_switch, ow, nw, fl, NULL) : NULL;
                Py_XDECREF(ow);
                Py_XDECREF(fl);
                if (r2 == NULL) {
                    Py_DECREF(out); Py_DECREF(nw); Py_DECREF(nxt);
                    goto fail_run;
                }
                Py_DECREF(r2);
            }
            Py_DECREF(out);
            if (PyObject_SetAttr(kernel, a_last_suspended,
                                 Py_None) < 0 ||
                    PyObject_SetAttr(kernel, a_current, nxt) < 0 ||
                    PyObject_SetAttr(nxt, a_state, S_RUNNING) < 0) {
                Py_DECREF(nw); Py_DECREF(nxt);
                goto fail_run;
            }
            {
                PyObject *gs = PyObject_GetAttr(nxt, a_gen_stack);
                if (gs == NULL || !PyList_CheckExact(gs)) {
                    if (gs != NULL) {
                        Py_DECREF(gs);
                        PyErr_SetString(PyExc_TypeError,
                                        "gen_stack is not a list");
                    }
                    Py_DECREF(nw); Py_DECREF(nxt);
                    goto fail_run;
                }
                if (PyList_GET_SIZE(gs) == 0) {
                    PyObject *r2 = PyObject_CallMethodNoArgs(
                        nxt, a_start_root);
                    if (r2 == NULL) {
                        Py_DECREF(gs); Py_DECREF(nw); Py_DECREF(nxt);
                        goto fail_run;
                    }
                    Py_DECREF(r2);
                    if (c.verify) {
                        Py_ssize_t cwp;
                        PyObject *ntid = PyObject_GetAttr(nxt, a_tid);
                        PyObject *sig = ntid ? Py_BuildValue(
                            "(OOi)", S_sig, ntid, 1) : NULL;
                        Py_XDECREF(ntid);
                        if (sig == NULL ||
                                get_ssize(c.wf, a_cwp, &cwp) < 0 ||
                                list_set(c.regs,
                                         c.in_base[cwp] + 8, sig) < 0) {
                            Py_XDECREF(sig);
                            Py_DECREF(gs); Py_DECREF(nw); Py_DECREF(nxt);
                            goto fail_run;
                        }
                        Py_DECREF(sig);
                    }
                }
                Py_DECREF(gs);
            }
            Py_DECREF(nw);
            Py_DECREF(nxt);
        }
        continue;

#undef FAIL_Q
#undef FETCH_Q
#undef CALL1_Q
#undef SETATTR_Q
#undef TOP_GEN
    }

fail_run:
    run_fail = 1;
done_run:
    /* -- run exit: fold the run-global accumulators (also on error,
     * for crash-context identity with the pure loop) -- */
    {
        PyObject *et = NULL, *ev = NULL, *tb = NULL;
        if (run_fail)
            PyErr_Fetch(&et, &ev, &tb);
        if (add_ssize_attr(kernel, a__steps, c.steps) < 0 ||
                add_ssize_attr(kernel, a__progress, c.progress) < 0 ||
                add_ssize_attr(c.counters, a_compute_cycles,
                               c.compute) < 0 ||
                add_ssize_attr(c.counters, a_call_cycles,
                               c.call_cyc) < 0 ||
                add_ssize_attr(c.counters, a_saves, c.saves_total) < 0 ||
                add_ssize_attr(c.counters, a_restores,
                               c.restores_total) < 0) {
            if (run_fail)
                PyErr_Clear();
            else
                run_fail = 1;
        }
        if (c.prof != NULL &&
                set_ssize(c.prof, a__cd, (Py_ssize_t)c.prof_cd) < 0) {
            if (run_fail)
                PyErr_Clear();
            else
                run_fail = 1;
        }
        if (run_fail && et != NULL)
            PyErr_Restore(et, ev, tb);
    }
    if (!run_fail) {
        ret = Py_None;
        Py_INCREF(ret);
    }

cleanup:
    Py_XDECREF(tmp);
    Py_XDECREF(wmap);
    Py_XDECREF(m_prof_check);
    Py_XDECREF(c.cpu); Py_XDECREF(c.wf); Py_XDECREF(c.regs);
    Py_XDECREF(c.wim); Py_XDECREF(c.kinds); Py_XDECREF(c.tids);
    Py_XDECREF(c.counters); Py_XDECREF(c.prof); Py_XDECREF(c.scheme);
    Py_XDECREF(c.m_overflow); Py_XDECREF(c.m_underflow);
    Py_XDECREF(c.m_switch); Py_XDECREF(c.m_retire);
    Py_XDECREF(c.m_push_woken); Py_XDECREF(c.m_push_yielded);
    Py_XDECREF(c.m_popleft); Py_XDECREF(c.m_qextend);
    Py_XDECREF(c.m_wake_readers); Py_XDECREF(c.m_wake_writers);
    Py_XDECREF(c.m_do_close); Py_XDECREF(c.m_block);
    Py_XDECREF(c.m_spawn);
    Py_XDECREF(c.ready); Py_XDECREF(c.queue);
    if (c.above != NULL)
        PyMem_Free(c.above);
    return ret;
#undef FETCH
}

/* ---------------------------------------------------------------------
 * machine_run(machine, budget): Machine._run_batch, compiled.
 *
 * Only entered when machine._profiler is None (the Python gate), so
 * the per-instruction profiler hook is compiled out entirely.  The
 * common straight-line opcodes run inline; save/restore/ret/retadd/
 * halt/yield (and anything unexpected) delegate to the machine's own
 * bound-handler dispatch table with the cached state written back
 * first and reloaded after.
 * ------------------------------------------------------------------ */

typedef struct {
    PyObject *machine, *thread, *counters, *wf, *regs, *gregs;
    PyObject *memory, *dispatch, *instrs, *name;
    PyObject *cc;                     /* owned cache of thread.cc */
    Py_ssize_t *in_base, *out_base;   /* one allocation */
    Py_ssize_t n_instrs;
    long long compute, instr_acc;
} MCtx;

/* Reload thread.pc into a C index.  A value that does not fit a
 * Py_ssize_t is necessarily outside [0, n_instrs); reproduce the pure
 * loop's range check on it: ``0 <= pc`` first (its TypeError
 * propagates), then the MachineFault with the full value rendered. */
static int
mload_pc(MCtx *m, Py_ssize_t *pc, int *stale)
{
    PyObject *o = PyObject_GetAttr(m->thread, a_pc);
    Py_ssize_t v;
    if (o == NULL)
        return -1;
    v = PyLong_AsSsize_t(o);
    if (v == -1 && PyErr_Occurred()) {
        int ge;
        PyErr_Clear();
        ge = PyObject_RichCompareBool(long_zero, o, Py_LE);
        if (ge >= 0)
            PyErr_Format(MachineFaultT, "%U: pc %S out of range",
                         m->name, o);
        Py_DECREF(o);
        return -1;
    }
    Py_DECREF(o);
    *pc = v;
    *stale = 0;
    return 0;
}

/* Register access through the current window, mirroring
 * repro.isa.registers.  Anything unusual (index outside 0..7, odd
 * bank) delegates to the Python functions for exact error parity. */
static PyObject *
mread_reg(MCtx *m, PyObject *bank, PyObject *idxo)
{
    Py_ssize_t idx = PyLong_AsSsize_t(idxo);
    Py_UCS4 ch;
    Py_ssize_t cwp, base;

    if (idx == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        goto delegate;
    }
    if (!PyUnicode_Check(bank) || PyUnicode_GET_LENGTH(bank) != 1 ||
            idx < 0 || idx > 7)
        goto delegate;
    ch = PyUnicode_READ_CHAR(bank, 0);
    if (ch == 'g')
        return Py_NewRef(PyList_GET_ITEM(m->gregs, idx));
    if (get_ssize(m->wf, a_cwp, &cwp) < 0)
        return NULL;
    if (ch == 'o')
        base = m->out_base[cwp];
    else if (ch == 'l')
        base = m->in_base[cwp] + 8;
    else if (ch == 'i')
        base = m->in_base[cwp];
    else
        goto delegate;
    return Py_NewRef(PyList_GET_ITEM(m->regs, base + idx));
delegate:
    return PyObject_CallFunctionObjArgs(py_read_register, m->wf, bank,
                                        idxo, NULL);
}

static int
mwrite_reg(MCtx *m, PyObject *bank, PyObject *idxo, PyObject *v)
{
    Py_ssize_t idx = PyLong_AsSsize_t(idxo);
    Py_UCS4 ch;
    Py_ssize_t cwp, base;
    PyObject *r;

    if (idx == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        goto delegate;
    }
    if (!PyUnicode_Check(bank) || PyUnicode_GET_LENGTH(bank) != 1 ||
            idx < 0 || idx > 7)
        goto delegate;
    ch = PyUnicode_READ_CHAR(bank, 0);
    if (ch == 'g') {
        if (idx == 0)
            return 0;               /* %g0 is hardwired to zero */
        return list_set(m->gregs, idx, v);
    }
    if (get_ssize(m->wf, a_cwp, &cwp) < 0)
        return -1;
    if (ch == 'o')
        base = m->out_base[cwp];
    else if (ch == 'l')
        base = m->in_base[cwp] + 8;
    else if (ch == 'i')
        base = m->in_base[cwp];
    else
        goto delegate;
    return list_set(m->regs, base + idx, v);
delegate:
    r = PyObject_CallFunctionObjArgs(py_write_register, m->wf, bank,
                                     idxo, v, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Machine._value: an immediate's value, or a register read. */
static PyObject *
m_value(MCtx *m, PyObject *operand)
{
    PyObject *kind = PyObject_GetAttr(operand, a_kind);
    PyObject *bank, *idxo, *v;
    int imm;
    if (kind == NULL)
        return NULL;
    imm = str_eq(kind, K_imm);
    Py_DECREF(kind);
    if (imm < 0)
        return NULL;
    if (imm)
        return PyObject_GetAttr(operand, a_value);
    bank = PyObject_GetAttr(operand, a_bank);
    idxo = bank ? PyObject_GetAttr(operand, a_index) : NULL;
    if (idxo == NULL) {
        Py_XDECREF(bank);
        return NULL;
    }
    v = mread_reg(m, bank, idxo);
    Py_DECREF(bank);
    Py_DECREF(idxo);
    return v;
}

/* Machine._write: a register write through the operand. */
static int
m_write(MCtx *m, PyObject *operand, PyObject *v)
{
    PyObject *bank = PyObject_GetAttr(operand, a_bank);
    PyObject *idxo = bank ? PyObject_GetAttr(operand, a_index) : NULL;
    int r;
    if (idxo == NULL) {
        Py_XDECREF(bank);
        return -1;
    }
    r = mwrite_reg(m, bank, idxo, v);
    Py_DECREF(bank);
    Py_DECREF(idxo);
    return r;
}

static binaryfunc
alu_fn(long code)
{
    switch (code) {
    case OPC_ADD: return PyNumber_Add;
    case OPC_SUB: return PyNumber_Subtract;
    case OPC_AND: return PyNumber_And;
    case OPC_OR: return PyNumber_Or;
    case OPC_XOR: return PyNumber_Xor;
    case OPC_SLL: return PyNumber_Lshift;
    case OPC_SRL: return PyNumber_Rshift;
    default: return PyNumber_Multiply;      /* OPC_SMUL */
    }
}

static int
branch_cmp_op(long code)
{
    switch (code) {
    case OPC_BE: return Py_EQ;
    case OPC_BNE: return Py_NE;
    case OPC_BG: return Py_GT;
    case OPC_BGE: return Py_GE;
    case OPC_BL: return Py_LT;
    default: return Py_LE;                  /* OPC_BLE */
    }
}

static PyObject *
fast_machine_run(PyObject *self, PyObject *args)
{
    PyObject *machine;
    long long budget;
    MCtx m;
    PyObject *ret = NULL;
    PyObject *it_instr = NULL, *it_op = NULL, *it_ops = NULL;
    PyObject *program = NULL;
    Py_ssize_t pc = 0;
    long long executed = 0;
    int pc_stale = 0, run_fail = 0;

    if (!PyArg_ParseTuple(args, "OL:machine_run", &machine, &budget))
        return NULL;
    if (ensure_init() < 0)
        return NULL;
    memset(&m, 0, sizeof(m));
    m.machine = machine;

#define MFETCH(dst, o, n) \
    do { (dst) = PyObject_GetAttr((o), (n)); \
         if ((dst) == NULL) goto mcleanup; } while (0)

    MFETCH(m.thread, machine, a_current);
    if (m.thread == Py_None) {
        PyErr_SetString(PyExc_AssertionError,
                        "machine_run with no current thread");
        goto mcleanup;
    }
    MFETCH(m.name, m.thread, a_name);
    MFETCH(program, machine, a_program);
    MFETCH(m.instrs, program, a_instructions);
    if (!PyList_CheckExact(m.instrs)) {
        PyObject *li = PySequence_List(m.instrs);
        if (li == NULL)
            goto mcleanup;
        Py_SETREF(m.instrs, li);
    }
    m.n_instrs = PyList_GET_SIZE(m.instrs);
    MFETCH(m.dispatch, machine, a__dispatch);
    MFETCH(m.counters, machine, a_counters);
    MFETCH(m.memory, machine, a_memory);
    if (!PyDict_CheckExact(m.memory) || !PyDict_CheckExact(m.dispatch)) {
        PyErr_SetString(PyExc_TypeError,
                        "machine memory/dispatch have unexpected types");
        goto mcleanup;
    }
    {
        PyObject *cpu;
        MFETCH(cpu, machine, a_cpu);
        m.wf = PyObject_GetAttr(cpu, a_wf);
        Py_DECREF(cpu);
        if (m.wf == NULL)
            goto mcleanup;
    }
    MFETCH(m.regs, m.wf, a__regs);
    MFETCH(m.gregs, m.wf, a_global_regs);
    if (!PyList_CheckExact(m.regs) || !PyList_CheckExact(m.gregs)) {
        PyErr_SetString(PyExc_TypeError,
                        "window file storage has unexpected types");
        goto mcleanup;
    }
    {
        PyObject *li = NULL, *lo = NULL;
        Py_ssize_t i, n;
        MFETCH(li, m.wf, a__in_base);
        lo = PyObject_GetAttr(m.wf, a__out_base);
        if (lo == NULL || !PyList_CheckExact(li) ||
                !PyList_CheckExact(lo)) {
            if (lo != NULL)
                PyErr_SetString(PyExc_TypeError,
                                "geometry tables have unexpected types");
            Py_DECREF(li); Py_XDECREF(lo);
            goto mcleanup;
        }
        n = PyList_GET_SIZE(li);
        m.in_base = PyMem_New(Py_ssize_t, (size_t)(2 * n));
        if (m.in_base == NULL) {
            PyErr_NoMemory();
            Py_DECREF(li); Py_DECREF(lo);
            goto mcleanup;
        }
        m.out_base = m.in_base + n;
        for (i = 0; i < n; i++) {
            m.in_base[i] = PyLong_AsSsize_t(PyList_GET_ITEM(li, i));
            m.out_base[i] = PyLong_AsSsize_t(PyList_GET_ITEM(lo, i));
        }
        Py_DECREF(li); Py_DECREF(lo);
        if (PyErr_Occurred())
            goto mcleanup;
    }
    MFETCH(m.cc, m.thread, a_cc);
    if (mload_pc(&m, &pc, &pc_stale) < 0)
        goto mfail;

#define MFAIL() do { Py_XDECREF(it_instr); Py_XDECREF(it_op); \
                     Py_XDECREF(it_ops); it_instr = it_op = it_ops = NULL; \
                     goto mfail; } while (0)
/* weird pc value: park it on the thread and resolve at the loop top
 * (budget check first, range check second -- pure-loop order) */
#define MSET_PC_OBJ(o) \
    do { if (PyObject_SetAttr(m.thread, a_pc, (o)) < 0) { \
             Py_DECREF(o); MFAIL(); } \
         Py_DECREF(o); pc_stale = 1; } while (0)

    for (;;) {
        long code = 0;
        PyObject *codeo;

        if (executed >= budget)
            break;                  /* EXIT_BUDGET */
        if (pc_stale && mload_pc(&m, &pc, &pc_stale) < 0)
            goto mfail;
        if (pc < 0 || pc >= m.n_instrs) {
            PyErr_Format(MachineFaultT, "%U: pc %zd out of range",
                         m.name, pc);
            goto mfail;
        }
        it_instr = Py_NewRef(PyList_GET_ITEM(m.instrs, pc));
        executed += 1;
        m.instr_acc += 1;
        it_op = PyObject_GetAttr(it_instr, a_op);
        if (it_op == NULL)
            MFAIL();
        codeo = PyDict_GetItemWithError(op_codes, it_op);
        if (codeo == NULL) {
            if (PyErr_Occurred())
                MFAIL();
        }
        else
            code = PyLong_AsLong(codeo);

        if (code >= OPC_ADD && code <= OPC_SMUL) {
            PyObject *a, *b, *r;
            it_ops = PyObject_GetAttr(it_instr, a_operands);
            if (it_ops == NULL)
                MFAIL();
            if (!PyTuple_CheckExact(it_ops) ||
                    PyTuple_GET_SIZE(it_ops) < 3)
                goto do_delegate;
            a = m_value(&m, PyTuple_GET_ITEM(it_ops, 0));
            if (a == NULL)
                MFAIL();
            b = m_value(&m, PyTuple_GET_ITEM(it_ops, 1));
            if (b == NULL) {
                Py_DECREF(a);
                MFAIL();
            }
            r = alu_fn(code)(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (r == NULL)
                MFAIL();
            if (m_write(&m, PyTuple_GET_ITEM(it_ops, 2), r) < 0) {
                Py_DECREF(r);
                MFAIL();
            }
            Py_DECREF(r);
            m.compute += 1;
            pc += 1;
        }
        else if (code >= OPC_BE && code <= OPC_BLE) {
            int taken = PyObject_RichCompareBool(m.cc, long_zero,
                                                 branch_cmp_op(code));
            if (taken < 0)
                MFAIL();
            if (taken) {
                PyObject *lbl = PyObject_GetAttr(it_instr, a_label);
                Py_ssize_t v;
                if (lbl == NULL)
                    MFAIL();
                v = PyLong_AsSsize_t(lbl);
                if (v == -1 && PyErr_Occurred()) {
                    PyErr_Clear();
                    MSET_PC_OBJ(lbl);
                }
                else {
                    Py_DECREF(lbl);
                    pc = v;
                }
            }
            else
                pc += 1;
            m.compute += 1;
        }
        else switch (code) {
        case OPC_MOV: {
            PyObject *v;
            it_ops = PyObject_GetAttr(it_instr, a_operands);
            if (it_ops == NULL)
                MFAIL();
            if (!PyTuple_CheckExact(it_ops) ||
                    PyTuple_GET_SIZE(it_ops) < 2)
                goto do_delegate;
            v = m_value(&m, PyTuple_GET_ITEM(it_ops, 0));
            if (v == NULL)
                MFAIL();
            if (m_write(&m, PyTuple_GET_ITEM(it_ops, 1), v) < 0) {
                Py_DECREF(v);
                MFAIL();
            }
            Py_DECREF(v);
            m.compute += 1;
            pc += 1;
            break;
        }
        case OPC_CMP: {
            PyObject *a, *b, *r;
            it_ops = PyObject_GetAttr(it_instr, a_operands);
            if (it_ops == NULL)
                MFAIL();
            if (!PyTuple_CheckExact(it_ops) ||
                    PyTuple_GET_SIZE(it_ops) < 2)
                goto do_delegate;
            a = m_value(&m, PyTuple_GET_ITEM(it_ops, 0));
            if (a == NULL)
                MFAIL();
            b = m_value(&m, PyTuple_GET_ITEM(it_ops, 1));
            if (b == NULL) {
                Py_DECREF(a);
                MFAIL();
            }
            r = PyNumber_Subtract(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (r == NULL)
                MFAIL();
            Py_SETREF(m.cc, r);
            m.compute += 1;
            pc += 1;
            break;
        }
        case OPC_BA: {
            PyObject *lbl = PyObject_GetAttr(it_instr, a_label);
            Py_ssize_t v;
            if (lbl == NULL)
                MFAIL();
            v = PyLong_AsSsize_t(lbl);
            if (v == -1 && PyErr_Occurred()) {
                PyErr_Clear();
                MSET_PC_OBJ(lbl);
            }
            else {
                Py_DECREF(lbl);
                pc = v;
            }
            m.compute += 1;
            break;
        }
        case OPC_NOP:
            m.compute += 1;
            pc += 1;
            break;
        case OPC_CALL: {
            PyObject *lbl, *pco;
            Py_ssize_t v, cwp;
            lbl = PyObject_GetAttr(it_instr, a_label);
            if (lbl == NULL)
                MFAIL();
            pco = PyLong_FromSsize_t(pc);
            if (pco == NULL) {
                Py_DECREF(lbl);
                MFAIL();
            }
            if (get_ssize(m.wf, a_cwp, &cwp) < 0 ||
                    list_set(m.regs, m.out_base[cwp] + 7, pco) < 0) {
                Py_DECREF(pco);
                Py_DECREF(lbl);
                MFAIL();
            }
            Py_DECREF(pco);
            m.compute += 1;
            v = PyLong_AsSsize_t(lbl);
            if (v == -1 && PyErr_Occurred()) {
                PyErr_Clear();
                MSET_PC_OBJ(lbl);
            }
            else {
                Py_DECREF(lbl);
                pc = v;
            }
            break;
        }
        case OPC_RETL: {
            PyObject *sum;
            Py_ssize_t v, cwp;
            if (get_ssize(m.wf, a_cwp, &cwp) < 0)
                MFAIL();
            sum = PyNumber_Add(
                PyList_GET_ITEM(m.regs, m.out_base[cwp] + 7), long_one);
            if (sum == NULL)
                MFAIL();
            v = PyLong_AsSsize_t(sum);
            if (v == -1 && PyErr_Occurred()) {
                PyErr_Clear();
                MSET_PC_OBJ(sum);
            }
            else {
                Py_DECREF(sum);
                pc = v;
            }
            m.compute += 1;
            break;
        }
        case OPC_LD: {
            PyObject *mem, *base, *off, *addr, *v;
            it_ops = PyObject_GetAttr(it_instr, a_operands);
            if (it_ops == NULL)
                MFAIL();
            if (!PyTuple_CheckExact(it_ops) ||
                    PyTuple_GET_SIZE(it_ops) < 2)
                goto do_delegate;
            mem = PyTuple_GET_ITEM(it_ops, 0);
            {
                PyObject *bank = PyObject_GetAttr(mem, a_bank);
                PyObject *idxo = bank ? PyObject_GetAttr(mem, a_index)
                                      : NULL;
                base = idxo ? mread_reg(&m, bank, idxo) : NULL;
                Py_XDECREF(bank);
                Py_XDECREF(idxo);
            }
            if (base == NULL)
                MFAIL();
            off = PyObject_GetAttr(mem, a_offset);
            addr = off ? PyNumber_Add(base, off) : NULL;
            Py_DECREF(base);
            Py_XDECREF(off);
            if (addr == NULL)
                MFAIL();
            v = PyDict_GetItemWithError(m.memory, addr);
            Py_DECREF(addr);
            if (v == NULL) {
                if (PyErr_Occurred())
                    MFAIL();
                v = long_zero;
            }
            Py_INCREF(v);
            if (m_write(&m, PyTuple_GET_ITEM(it_ops, 1), v) < 0) {
                Py_DECREF(v);
                MFAIL();
            }
            Py_DECREF(v);
            m.compute += 2;
            pc += 1;
            break;
        }
        case OPC_ST: {
            PyObject *mem, *base, *off, *addr, *v;
            it_ops = PyObject_GetAttr(it_instr, a_operands);
            if (it_ops == NULL)
                MFAIL();
            if (!PyTuple_CheckExact(it_ops) ||
                    PyTuple_GET_SIZE(it_ops) < 2)
                goto do_delegate;
            mem = PyTuple_GET_ITEM(it_ops, 1);
            {
                PyObject *bank = PyObject_GetAttr(mem, a_bank);
                PyObject *idxo = bank ? PyObject_GetAttr(mem, a_index)
                                      : NULL;
                base = idxo ? mread_reg(&m, bank, idxo) : NULL;
                Py_XDECREF(bank);
                Py_XDECREF(idxo);
            }
            if (base == NULL)
                MFAIL();
            off = PyObject_GetAttr(mem, a_offset);
            addr = off ? PyNumber_Add(base, off) : NULL;
            Py_DECREF(base);
            Py_XDECREF(off);
            if (addr == NULL)
                MFAIL();
            v = m_value(&m, PyTuple_GET_ITEM(it_ops, 0));
            if (v == NULL) {
                Py_DECREF(addr);
                MFAIL();
            }
            if (PyDict_SetItem(m.memory, addr, v) < 0) {
                Py_DECREF(addr);
                Py_DECREF(v);
                MFAIL();
            }
            Py_DECREF(addr);
            Py_DECREF(v);
            m.compute += 3;
            pc += 1;
            break;
        }
        default:
            goto do_delegate;
        }
        Py_CLEAR(it_instr);
        Py_CLEAR(it_op);
        Py_CLEAR(it_ops);
        continue;

    do_delegate:
        /* save/restore/ret/retadd/halt/yield (or anything odd): write
         * the cached state back, run the machine's own bound handler,
         * reload what it may have touched */
        {
            PyObject *handler, *reason;
            int truthy;
            if ((!pc_stale && set_ssize(m.thread, a_pc, pc) < 0) ||
                    PyObject_SetAttr(m.thread, a_cc, m.cc) < 0 ||
                    add_ssize_attr(m.thread, a_instructions,
                                   m.instr_acc) < 0 ||
                    add_ssize_attr(m.counters, a_compute_cycles,
                                   m.compute) < 0)
                MFAIL();
            m.instr_acc = 0;
            m.compute = 0;
            handler = PyDict_GetItemWithError(m.dispatch, it_op);
            if (handler == NULL) {
                if (!PyErr_Occurred())
                    PyErr_Format(MachineFaultT, "unknown op %R", it_op);
                MFAIL();
            }
            Py_INCREF(handler);
            reason = PyObject_CallFunctionObjArgs(handler, m.thread,
                                                  it_instr, NULL);
            Py_DECREF(handler);
            if (reason == NULL)
                MFAIL();
            truthy = PyObject_IsTrue(reason);
            if (truthy < 0) {
                Py_DECREF(reason);
                MFAIL();
            }
            if (truthy) {
                /* batch-exit event (EXIT_DONE / EXIT_YIELDED): the
                 * handler owns the state now; nothing left to fold */
                Py_CLEAR(it_instr);
                Py_CLEAR(it_op);
                Py_CLEAR(it_ops);
                ret = Py_BuildValue("(LN)", executed, reason);
                if (ret == NULL)
                    Py_DECREF(reason);
                goto mcleanup;
            }
            Py_DECREF(reason);
            pc_stale = 1;
            {
                PyObject *ncc = PyObject_GetAttr(m.thread, a_cc);
                if (ncc == NULL)
                    MFAIL();
                Py_SETREF(m.cc, ncc);
            }
        }
        Py_CLEAR(it_instr);
        Py_CLEAR(it_op);
        Py_CLEAR(it_ops);
    }

    /* budget exhausted mid-batch */
    if ((!pc_stale && set_ssize(m.thread, a_pc, pc) < 0) ||
            PyObject_SetAttr(m.thread, a_cc, m.cc) < 0 ||
            add_ssize_attr(m.thread, a_instructions, m.instr_acc) < 0 ||
            add_ssize_attr(m.counters, a_compute_cycles, m.compute) < 0)
        goto mfail;
    ret = Py_BuildValue("(LO)", executed, EXIT_BUDGET_O);
    goto mcleanup;

mfail:
    run_fail = 1;
    {
        /* fold the cached state under the in-flight exception so the
         * crash context matches the pure loop's */
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (m.thread != NULL && m.thread != Py_None && m.cc != NULL) {
            if (!pc_stale)
                (void)set_ssize(m.thread, a_pc, pc);
            (void)PyObject_SetAttr(m.thread, a_cc, m.cc);
            (void)add_ssize_attr(m.thread, a_instructions, m.instr_acc);
            (void)add_ssize_attr(m.counters, a_compute_cycles, m.compute);
            PyErr_Clear();
        }
        PyErr_Restore(et, ev, tb);
    }

mcleanup:
    (void)run_fail;
    Py_XDECREF(it_instr);
    Py_XDECREF(it_op);
    Py_XDECREF(it_ops);
    Py_XDECREF(program);
    if (m.thread != NULL && m.thread != Py_None) {
        Py_DECREF(m.thread);
    }
    else
        Py_XDECREF(m.thread);
    Py_XDECREF(m.name); Py_XDECREF(m.instrs); Py_XDECREF(m.dispatch);
    Py_XDECREF(m.counters); Py_XDECREF(m.memory); Py_XDECREF(m.wf);
    Py_XDECREF(m.regs); Py_XDECREF(m.gregs); Py_XDECREF(m.cc);
    if (m.in_base != NULL)
        PyMem_Free(m.in_base);
    return ret;
#undef MFETCH
#undef MFAIL
#undef MSET_PC_OBJ
}

/* ---------------------------------------------------------------------
 * Module.
 * ------------------------------------------------------------------ */

static PyMethodDef fast_methods[] = {
    {"run_batched", (PyCFunction)fast_run_batched, METH_O,
     "Compiled Kernel._run_batched; bit-identical to the pure loop."},
    {"machine_run", fast_machine_run, METH_VARARGS,
     "Compiled Machine._run_batch; returns (executed, reason)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT,
    "repro._fast",
    "Compiled execution backend: the batched kernel dispatch loop and\n"
    "the ISA fetch loop, transcribed from the pure-Python hot paths\n"
    "and pinned bit-identical by the differential harness.",
    -1,
    fast_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    return PyModule_Create(&fast_module);
}
