/* The batched engine's replay object: one call per event horizon sizes it,
 * replays its epochs and commits its LLC warmth (see repro.xen.engine).
 *
 * Built with -O2 -ffp-contract=off -fno-fast-math, each + - * / rounds as a
 * Python float operation does; pow is the libm one float.__pow__ calls, whose
 * special cases go through float.__pow__.  A zero divisor raises
 * ZeroDivisionError.  Lists shared between rows are de-duplicated by
 * identity, so drifts apply in row order.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>

/* Live attributes. */
enum { PENDING, BUSY, DONE, SLICE, BURST, INSTR, REFS, MISSES, LOCAL, REMOTE, NLIVE };
static const char *NAMES[NLIVE] = {"overhead_pending_s", "busy_time_s",
    "instructions_done", "slice_used_s", "run_burst_remaining_s", "instructions",
    "llc_refs", "llc_misses", "local_accesses", "remote_accesses"};
/* Record fields, in repro.xen.engine.Record's order. */
enum { R_GEN, R_KEY, R_NODE, R_C, R_RPI, R_CPI, R_MLP, R_CLOCK, R_NS2C, R_MINMR, R_SPAN,
       R_SHAPE, R_EMPTY, R_DRIFT, R_NSL, R_CHARGE, R_TOTAL, R_GUARD, R_ROW, R_OVERALL,
       R_VCPU, R_WORKLOAD, R_BANK, R_ACCESSES, NREC };
/* The record field holding each live attribute; -1 is the PCPU. */
static const int OWNER[NLIVE] = {-1, -1, R_WORKLOAD, R_VCPU, R_VCPU, R_BANK, R_BANK, R_BANK,
                                 R_BANK, R_BANK};
/* The engine's constants, in its ``_scalars`` order, then the epoch. */
enum { HIT, DRAM, BW0, BW1, QBW, S_DRAM, S_REMOTE, CAP, KNEE, BPM, DECAY, EPS, EPOCH, NSC };
static PyObject *names[NLIVE], *s_current, *s_slot;

typedef struct {
    /* Borrowed from the record, which ``held`` owns: the record (NULL while
     * idle), its VCPU, and the object (it or the PCPU) of each live field. */
    PyObject *rec, *vcpu, *owner[NLIVE];
    double c, rp, cb, ml, ck, n2, minmr, span, shape, d, nsl, cf, total, guard, share;
    int nd0, bad, has_total, pend_set;
    Py_ssize_t key, node;
    /* This horizon's: live fields, page mix and miss rate, warmth, and the
     * values of the slice row, ``overall`` and the PMU node accesses. */
    double live[NLIVE], scr[3], warm, *row, *over, *na;
} Slot;

/* One live list of two floats, its values, and a bit per item the replay assigns. */
typedef struct { PyObject *list; double v[2]; int assigned; } Cell;

typedef struct {
    PyObject_HEAD
    /* The PCPUs and the LLCs' warmth tables (tuples); per PCPU, the record
     * its slot holds or None; per node, its members' keys or None to plan. */
    PyObject *pcpus, *tables, *held, *keys;
    Py_ssize_t np, nn, *nmem;
    Slot *slots, **run, **mem;  /* per PCPU; this horizon's running ones; np per node */
    Cell *cells;                /* three lists per row */
    double sc[NSC];
} Replay;

/* Record constants: (field, Slot member). */
#define K(i, f) {i, offsetof(Slot, f)}
static const struct { int idx; size_t off; } CONSTS[] = {
    K(R_C, c), K(R_RPI, rp), K(R_CPI, cb), K(R_MLP, ml), K(R_CLOCK, ck), K(R_NS2C, n2),
    K(R_MINMR, minmr), K(R_SPAN, span), K(R_SHAPE, shape), K(R_DRIFT, d), K(R_NSL, nsl),
    K(R_CHARGE, cf), K(R_GUARD, guard),
};

#define DIV(out, x, y) do { double y_ = (y); if (y_ == 0.0) goto zerodiv; (out) = (x) / y_; } while (0)
/* Queueing inflation: ``cap`` from the knee on, else 1 / (1 - rho); the
 * knee (1 - 1 / cap) is below 1, so the divisor is never zero. */
#define INFLATE(rho) ((rho) >= r->sc[KNEE] ? r->sc[CAP] : 1.0 / (1.0 - (rho)))

static int num(PyObject *o, double *out)
{
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* The values of ``lst``, read on first sight only. */
static double *cell_of(PyObject *lst, int assigned, Cell *cells, Py_ssize_t *n)
{
    Py_ssize_t i;
    Cell *cell;
    for (i = 0; i < *n && cells[i].list != lst; i++) {}
    cell = &cells[i];
    if (i == *n) {
        if (!PyList_Check(lst) || PyList_GET_SIZE(lst) != 2) {
            PyErr_SetString(PyExc_ValueError, "a replay list must hold 2 floats");
            return NULL;
        }
        if (num(PyList_GET_ITEM(lst, 0), &cell->v[0]) < 0 || num(PyList_GET_ITEM(lst, 1), &cell->v[1]) < 0)
            return NULL;
        cell->list = lst, cell->assigned = 0, (*n)++;
    }
    cell->assigned |= assigned;
    return cell->v;
}

/* ``b ** e`` exactly as float.__pow__ computes it. */
static int power(double b, double e, double *out)
{
    PyObject *pb, *pe, *r;
    int rc;
    if (b > 0.0 && isfinite(e)) {
        *out = pow(b, e);
        if (isnormal(*out))
            return 0;
    }
    pb = PyFloat_FromDouble(b), pe = PyFloat_FromDouble(e);
    r = pb != NULL && pe != NULL ? PyNumber_Power(pb, pe, Py_None) : NULL;
    Py_XDECREF(pb);
    Py_XDECREF(pe);
    rc = r == NULL ? -1 : num(r, out);
    Py_XDECREF(r);
    return rc;
}

/* Forget PCPU ``pid``'s slot; its node plans again. */
static void forget(Replay *r, Py_ssize_t pid)
{
    Slot *s = &r->slots[pid];
    if (s->rec == NULL)
        return;
    s->rec = s->vcpu = NULL;
    PyList_SetItem(r->keys, s->node, Py_NewRef(Py_None));
    PyList_SetItem(r->held, pid, Py_NewRef(Py_None));
}

/* Parse ``rec``, the record of ``vcpu`` running on ``pcpu``, into its slot. */
static int fill(Replay *r, Py_ssize_t pid, PyObject *rec, PyObject *vcpu)
{
    Slot *s = &r->slots[pid];
    PyObject **R;
    size_t k;
    if (!PyTuple_Check(rec) || PyTuple_GET_SIZE(rec) != NREC || PyTuple_GET_ITEM(rec, R_VCPU) != vcpu) {
        PyErr_SetString(PyExc_ValueError, "a slot needs the running VCPU's replay record");
        return -1;
    }
    R = &PyTuple_GET_ITEM(rec, 0);
    for (k = 0; k < sizeof CONSTS / sizeof CONSTS[0]; k++)
        if (num(R[CONSTS[k].idx], (double *)((char *)s + CONSTS[k].off)) < 0)
            return -1;
    if ((s->bad = PyObject_IsTrue(R[R_EMPTY])) < 0
        || ((s->key = PyLong_AsSsize_t(R[R_KEY])) == -1 && PyErr_Occurred())
        || ((s->node = PyLong_AsSsize_t(R[R_NODE])) == -1 && PyErr_Occurred())
        || ((s->has_total = R[R_TOTAL] != Py_None) && num(R[R_TOTAL], &s->total) < 0))
        return -1;
    if (s->node < 0 || s->node >= r->nn) {
        PyErr_SetString(PyExc_ValueError, "a record's node has no warmth table");
        return -1;
    }
    for (k = 0; k < NLIVE; k++)
        s->owner[k] = OWNER[k] < 0 ? PyTuple_GET_ITEM(r->pcpus, pid) : R[OWNER[k]];
    s->nd0 = s->node == 0, s->rec = rec, s->vcpu = vcpu;
    PyList_SetItem(r->held, pid, Py_NewRef(rec));
    PyList_SetItem(r->keys, s->node, Py_NewRef(Py_None));
    return 0;
}

/* Each PCPU's slot follows its ``current``. */
static int follow(Replay *r, PyObject *engine)
{
    Py_ssize_t pid;
    for (pid = 0; pid < r->np; pid++) {
        PyObject *pcpu = PyTuple_GET_ITEM(r->pcpus, pid), *cur = PyObject_GetAttr(pcpu, s_current), *rec;
        int rc = cur == NULL ? -1 : 0;
        if (rc == 0 && cur != (r->slots[pid].vcpu != NULL ? r->slots[pid].vcpu : Py_None)) {
            forget(r, pid);
            if (cur != Py_None) {
                rec = PyObject_CallMethodObjArgs(engine, s_slot, pcpu, cur, NULL);
                rc = rec == NULL ? -1 : fill(r, pid, rec, cur);
                Py_XDECREF(rec);
            }
        }
        Py_XDECREF(cur);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* A node's members in key order, and their capped LLC shares. */
static int plan(Replay *r, PyObject *engine, Py_ssize_t node)
{
    Slot **mem = r->mem + node * r->np;
    Py_ssize_t m = 0, i, j;
    PyObject *keys, *entry, *shares;
    int rc = -1;
    for (i = 0; i < r->np; i++) {
        Slot *s = &r->slots[i];
        if (s->rec == NULL || s->node != node)
            continue;
        for (j = m++; j > 0 && mem[j - 1]->key > s->key; j--)
            mem[j] = mem[j - 1];
        mem[j] = s;
    }
    if ((keys = PyTuple_New(m)) == NULL)
        return -1;
    for (j = 0; j < m; j++)
        PyTuple_SET_ITEM(keys, j, Py_NewRef(PyTuple_GET_ITEM(mem[j]->rec, R_KEY)));
    entry = PyObject_CallMethod(engine, "_node_entry", "nO", node, keys);
    shares = entry != NULL && PyTuple_Check(entry) && PyTuple_GET_SIZE(entry) == 2
        ? PyTuple_GET_ITEM(entry, 1) : NULL;
    if (entry != NULL && (shares == NULL || !PyList_Check(shares) || PyList_GET_SIZE(shares) != m))
        PyErr_SetString(PyExc_ValueError, "a node plan is (members, a share per member)");
    else if (entry != NULL)
        for (rc = 0, j = 0; rc == 0 && j < m; j++)
            rc = num(PyList_GET_ITEM(shares, j), &mem[j]->share);
    if (rc == 0)
        PyList_SetItem(r->keys, node, keys), r->nmem[node] = m, keys = NULL;
    Py_XDECREF(keys);
    Py_XDECREF(entry);
    return rc;
}

/* The live fields of a running slot and the values of its lists. */
static int load(Slot *s, Cell *cells, Py_ssize_t *n)
{
    PyObject **R = &PyTuple_GET_ITEM(s->rec, 0);
    int k;
    for (k = 0; k < NLIVE; k++) {
        PyObject *v = PyObject_GetAttr(s->owner[k], names[k]);
        int rc = v == NULL ? -1 : num(v, &s->live[k]);
        Py_XDECREF(v);
        if (rc < 0)
            return -1;
    }
    const int drift = s->d > 0 ? 3 : 0;     /* a drift assigns both items */
    s->pend_set = 0;
    return (s->row = cell_of(R[R_ROW], drift, cells, n)) == NULL
        || (s->over = cell_of(R[R_OVERALL], drift, cells, n)) == NULL
        || (s->na = cell_of(R[R_ACCESSES], 3, cells, n)) == NULL ? -1 : 0;
}

/* The horizon: ``kb`` (the caller's event cap) cut at the first event its
 * epochs could reach, with the float operations of the engine's former
 * Python sizing, in its order; 0 on a zero divisor. */
static Py_ssize_t size(Replay *r, Py_ssize_t n, Py_ssize_t kb, double now, double crash,
                       double limit, double wake, double phase, Py_ssize_t queued)
{
    const double epoch = r->sc[EPOCH];
    double window = (kb + 1) * epoch, t;
    Py_ssize_t i, j;
    if (kb <= 1)
        return 1;
    for (i = 0; i < n; i++) {
        Slot *s = r->run[i];
        if (s->live[DONE] > s->guard) {
            /* Within a tick of its budget: the exact floor, from the most
             * progress one epoch can make (clock / cpi_base * epoch). */
            double step, q;
            long long floor;
            DIV(step, s->ck, s->cb);
            step = step * epoch;
            DIV(q, s->total - s->live[DONE], step);
            floor = q < 4e18 ? (q > -4e18 ? (long long)q - 1 : -1) : kb;   /* int(q) - 1 */
            if (floor < kb) {
                if (floor <= 1)
                    return 1;
                kb = floor, window = (kb + 1) * epoch;
            }
        }
        if (s->live[BURST] <= window) {
            /* Expiry may land inside the window: replay the progress pass's
             * ``x -= epoch`` chain to the first epoch end leaving it <= 0. */
            double x = s->live[BURST];
            for (j = 0; j < kb; j++) {
                x -= epoch;
                if (x <= 0.0) {
                    if (j == 0)
                        return 1;
                    kb = j + 1, window = (kb + 1) * epoch;
                    break;
                }
            }
        }
    }
    if (queued && n < r->np)    /* never after a scheduling pass, which steals */
        return 1;
    for (limit = limit - 1e-12, t = now, j = 0; j < kb; j++) {
        if (j > 0 && (wake <= t || crash <= t || t >= limit))
            return j;
        if (phase <= t + epoch)
            return j + 1;
        t = t + epoch;
    }
    return kb;
zerodiv:
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    return 0;
}

static int set_item(PyObject *table, PyObject *key, double w)
{
    PyObject *v = PyFloat_FromDouble(w);
    int rc = v == NULL ? -1 : PyDict_SetItem(table, key, v);
    Py_XDECREF(v);
    return rc;
}

/* LLCState.advance over kb epochs: each non-member decays by kb sequential
 * multiplies, entries below eps are evicted once at the end, and the members
 * (``keys``, their slots in ``mem``) are written last, in key order.  Values
 * change in place while iterating and deletions and new keys come after, so
 * the table keeps its insertion order. */
static int commit(PyObject *table, PyObject *keys, Slot **mem, Py_ssize_t kb, double decay, double eps)
{
    PyObject *key, *value, *stale = PyList_New(0);
    Py_ssize_t pos = 0, j, t, id, m = PyTuple_GET_SIZE(keys);
    double w;
    int rc = stale == NULL ? -1 : 0;
    while (rc == 0 && PyDict_Next(table, &pos, &key, &value)) {
        for (id = PyLong_AsSsize_t(key), j = 0; j < m && mem[j]->key != id; j++) {}
        if ((id == -1 && PyErr_Occurred()) || (j == m && num(value, &w) < 0))
            rc = -1;
        for (t = 0; rc == 0 && j == m && t < kb; t++)
            w *= decay;
        if (rc == 0 && j == m)
            rc = w < eps ? PyList_Append(stale, key) : set_item(table, key, w);
    }
    for (j = 0; rc == 0 && j < PyList_GET_SIZE(stale); j++)
        rc = PyDict_DelItem(table, PyList_GET_ITEM(stale, j));
    for (j = 0; rc == 0 && j < m; j++)
        rc = set_item(table, PyTuple_GET_ITEM(keys, j), mem[j]->warm);
    Py_XDECREF(stale);
    return rc;
}

static PyObject *step(Replay *r, PyObject *args)
{
    PyObject *engine, *moved;
    double now, crash, limit, wake, phase, mbusy, end;
    Py_ssize_t kb, queued, n = 0, ncells = 0, i, j, t, node;
    int k;
    if (!PyArg_ParseTuple(args, "Odnddddnd", &engine, &now, &kb, &crash, &limit, &wake, &phase,
                          &queued, &mbusy) || follow(r, engine) < 0)
        return NULL;
    for (i = 0; i < r->np; i++)
        if (r->slots[i].rec != NULL)
            r->run[n++] = &r->slots[i];
    for (node = 0; node < r->nn; node++)
        if (PyList_GET_ITEM(r->keys, node) == Py_None && plan(r, engine, node) < 0)
            return NULL;
    for (i = 0; i < n; i++)
        if (load(r->run[i], r->cells, &ncells) < 0)
            return NULL;
    for (node = 0; node < r->nn; node++)            /* warmth is table.get(key, 0.0) */
        for (j = 0; j < r->nmem[node]; j++) {
            PyObject *key = PyTuple_GET_ITEM(PyList_GET_ITEM(r->keys, node), j);
            PyObject *w = PyDict_GetItemWithError(PyTuple_GET_ITEM(r->tables, node), key);
            Slot *s = r->mem[node * r->np + j];
            s->warm = 0.0;
            if (w != NULL ? num(w, &s->warm) < 0 : PyErr_Occurred() != NULL)
                return NULL;
        }
    if ((kb = size(r, n, kb, now, crash, limit, wake, phase, queued)) == 0)
        return NULL;
    const double epoch = r->sc[EPOCH], hit = r->sc[HIT], dram = r->sc[DRAM], bpm = r->sc[BPM];
    for (t = 0; n > 0 && t < kb; t++) {
        double imc0 = 0.0, imc1 = 0.0, qpi = 0.0, rho0, rho1, rhoq, dram0, dram1, far0, far1;
        for (i = 0; i < n; i++) {               /* miss curve, page mix, round 1 */
            Slot *s = r->run[i];
            double *scr = s->scr, f, missing, m0, m1, sum, mr, stall, rate, tr;
            f = s->bad ? 1.0 : s->share * s->warm;
            if (s->shape == 1.0) missing = 1.0 - f;
            else if (power(1.0 - f, s->shape, &missing) < 0) return NULL;
            scr[2] = mr = s->minmr + s->span * missing;
            m0 = s->c * s->row[0] + (1.0 - s->c) * s->over[0];
            m1 = s->c * s->row[1] + (1.0 - s->c) * s->over[1];
            sum = m0 + m1;
            DIV(scr[0], m0, sum);
            DIV(scr[1], m1, sum);
            DIV(stall, s->rp * ((1.0 - mr) * hit + mr * dram) * s->n2, s->ml);
            DIV(rate, s->ck, s->cb + stall);
            tr = rate * s->rp * mr * bpm;
            imc0 += tr * scr[0];
            imc1 += tr * scr[1];
            qpi += tr * scr[s->nd0 ? 1 : 0];
        }
        DIV(rho0, imc0, r->sc[BW0]);            /* the dual-socket solve */
        DIV(rho1, imc1, r->sc[BW1]);
        DIV(rhoq, qpi, r->sc[QBW]);
        dram0 = r->sc[S_DRAM] * INFLATE(rho0), dram1 = r->sc[S_DRAM] * INFLATE(rho1);
        far0 = dram0 + r->sc[S_REMOTE] * INFLATE(rhoq), far1 = dram1 + r->sc[S_REMOTE] * INFLATE(rhoq);
        for (i = 0; i < n; i++) {               /* rates, progress, PMU, drift, warmth */
            Slot *s = r->run[i];
            double *live = s->live, x0 = s->scr[0], x1 = s->scr[1], mr = s->scr[2];
            double pen, stall, rate, compute = epoch, done, rf, mi, a0, a1, local;
            pen = s->nd0 ? x0 * dram0 + x1 * far1 : x0 * far0 + x1 * dram1;
            DIV(stall, s->rp * ((1.0 - mr) * hit + mr * pen) * s->n2, s->ml);
            DIV(rate, s->ck, s->cb + stall);
            if (live[PENDING] > 0.0) {
                double used = live[PENDING] < epoch ? live[PENDING] : epoch;
                live[PENDING] = live[PENDING] - used, compute = epoch - used, s->pend_set = 1;
            }
            live[BUSY] += epoch;
            mbusy += epoch;
            done = rate * compute;
            if (kb == 1 && s->has_total) {      /* only a one-epoch horizon can bind */
                double remaining = s->total - live[DONE];
                if (remaining < 0.0) remaining = 0.0;
                if (remaining < done) done = remaining;
            }
            rf = done * s->rp, mi = rf * mr, a0 = mi * x0, a1 = mi * x1;
            local = s->nd0 ? a0 : a1;
            s->na[0] += a0, s->na[1] += a1;
            live[INSTR] += done, live[REFS] += rf, live[MISSES] += mi;
            live[LOCAL] += local, live[REMOTE] += (a0 + a1) - local;
            live[DONE] += done, live[SLICE] += epoch, live[BURST] -= epoch;
            if (s->d > 0) {
                double r0 = s->row[0], r1 = s->row[1], q;
                double n0 = r0 * (1.0 - s->d), n1 = r1 * (1.0 - s->d);
                if (s->nd0) n0 = n0 + s->d;
                else n1 = n1 + s->d;
                s->row[0] = n0, s->row[1] = n1;
                DIV(q, n0 - r0, s->nsl); s->over[0] += q;
                DIV(q, n1 - r1, s->nsl); s->over[1] += q;
            }
            s->warm = 1.0 - (1.0 - s->warm) * s->cf;
        }
    }
    for (i = 0; i < n; i++)                     /* write back what the loop assigned */
        for (k = r->run[i]->pend_set ? PENDING : BUSY; k < NLIVE; k++) {
            PyObject *v = PyFloat_FromDouble(r->run[i]->live[k]);
            int rc = v == NULL ? -1 : PyObject_SetAttr(r->run[i]->owner[k], names[k], v);
            Py_XDECREF(v);
            if (rc < 0) return NULL;
        }
    for (i = 0; i < ncells; i++)
        for (j = 0; j < 2; j++) {
            PyObject *v;
            if ((r->cells[i].assigned >> j & 1) && ((v = PyFloat_FromDouble(r->cells[i].v[j])) == NULL
                || PyList_SetItem(r->cells[i].list, j, v) < 0))  /* steals v */
                return NULL;
        }
    for (node = 0; node < r->nn; node++)        /* then every LLC's warmth */
        if (commit(PyTuple_GET_ITEM(r->tables, node), PyList_GET_ITEM(r->keys, node),
                   r->mem + node * r->np, kb, r->sc[DECAY], r->sc[EPS]) < 0)
            return NULL;
    for (end = now, t = 1; t < kb; t++)
        end = end + epoch;
    end = end + epoch;
    for (j = 0, i = 0; i < n; i++)              /* finished, or its burst drained */
        if ((r->run[i]->has_total && r->run[i]->live[DONE] >= r->run[i]->total) || r->run[i]->live[BURST] <= 0.0)
            r->run[j++] = r->run[i];
    if ((moved = PyTuple_New(j)) == NULL)
        return NULL;
    for (i = 0; i < j; i++)
        PyTuple_SET_ITEM(moved, i, Py_NewRef(PyTuple_GET_ITEM(r->pcpus, r->run[i] - r->slots)));
    return Py_BuildValue("nddnN", kb, end, mbusy, r->np - n, moved);
zerodiv:
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    return NULL;
}

static PyObject *drop(Replay *r, PyObject *vcpu)
{
    Py_ssize_t pid;
    for (pid = 0; pid < r->np; pid++)
        if (r->slots[pid].vcpu == vcpu)
            forget(r, pid);
    Py_RETURN_NONE;
}

static PyObject *slots(Replay *r, PyObject *Py_UNUSED(ignored))
{
    return PyList_GetSlice(r->held, 0, r->np);
}

static int Replay_traverse(Replay *r, visitproc visit, void *arg)
{
    Py_VISIT(r->pcpus);
    Py_VISIT(r->tables);
    Py_VISIT(r->held);
    Py_VISIT(r->keys);
    return 0;
}

static int Replay_clear(Replay *r)
{
    r->np = r->nn = 0;
    Py_CLEAR(r->pcpus);
    Py_CLEAR(r->tables);
    Py_CLEAR(r->held);
    Py_CLEAR(r->keys);
    return 0;
}

static void Replay_dealloc(Replay *r)
{
    PyObject_GC_UnTrack(r);
    Replay_clear(r);
    PyMem_Free(r->slots);       /* one block: slots, run, mem, nmem, cells */
    Py_TYPE(r)->tp_free((PyObject *)r);
}

static PyObject *Replay_new(PyTypeObject *type, PyObject *args, PyObject *Py_UNUSED(kwds))
{
    PyObject *pcpus, *tables, *none = Py_BuildValue("[O]", Py_None);
    Py_ssize_t np, nn;
    double *sc;
    Replay *r = (Replay *)type->tp_alloc(type, 0);
    if (r == NULL || none == NULL)
        goto fail;
    sc = r->sc;
    if (!PyArg_ParseTuple(args, "O(dddddddddddd)dO!", &pcpus, &sc[0], &sc[1], &sc[2], &sc[3],
                          &sc[4], &sc[5], &sc[6], &sc[7], &sc[8], &sc[9], &sc[10], &sc[11],
                          &sc[EPOCH], &PyTuple_Type, &tables)
        || (r->pcpus = PySequence_Tuple(pcpus)) == NULL)
        goto fail;
    r->tables = Py_NewRef(tables);
    np = PyTuple_GET_SIZE(r->pcpus), nn = PyTuple_GET_SIZE(tables);
    if ((r->held = PySequence_Repeat(none, np)) == NULL || (r->keys = PySequence_Repeat(none, nn)) == NULL)
        goto fail;
    /* One block, every part a multiple of 8 bytes. */
    r->slots = PyMem_Calloc(1, np * sizeof(Slot) + (np + nn * np) * sizeof(Slot *)
                            + nn * sizeof(Py_ssize_t) + 3 * np * sizeof(Cell) + 1);
    if (r->slots == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    r->run = (Slot **)(r->slots + np), r->mem = r->run + np;
    r->nmem = (Py_ssize_t *)(r->mem + nn * np), r->cells = (Cell *)(r->nmem + nn);
    r->np = np, r->nn = nn;
    Py_DECREF(none);
    return (PyObject *)r;
fail:
    Py_XDECREF(none);
    Py_XDECREF(r);
    return NULL;
}

static PyMethodDef replay_methods[] = {
    {"step", (PyCFunction)step, METH_VARARGS, "step(engine, now, kb, crash, limit, wake, phase, "
     "queued, busy) -> (kb, end, busy, idle, moved): size and replay one horizon."},
    {"drop", (PyCFunction)drop, METH_O, "Forget the slot holding this VCPU."},
    {"slots", (PyCFunction)slots, METH_NOARGS, "Each PCPU's replay record, None when idle."},
    {NULL, NULL, 0, NULL}};

static PyTypeObject ReplayType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_replay.Replay",
    .tp_basicsize = sizeof(Replay),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Replay(pcpus, scalars, epoch, tables): one batched engine's replay slots.",
    .tp_new = Replay_new,
    .tp_dealloc = (destructor)Replay_dealloc,
    .tp_traverse = (traverseproc)Replay_traverse,
    .tp_clear = (inquiry)Replay_clear,
    .tp_methods = replay_methods,
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_replay", NULL, -1, NULL,
                                    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__replay(void)
{
    PyObject *m;
    int k;
    for (k = 0; k < NLIVE; k++)
        if ((names[k] = PyUnicode_InternFromString(NAMES[k])) == NULL)
            return NULL;
    if ((s_current = PyUnicode_InternFromString("current")) == NULL
        || (s_slot = PyUnicode_InternFromString("_slot")) == NULL
        || (m = PyModule_Create(&module)) == NULL)
        return NULL;
    if (PyModule_AddType(m, &ReplayType) < 0)
        Py_CLEAR(m);
    return m;
}
