/* The batched engine's per-epoch replay loop (see repro.xen.engine).
 *
 * replay(contention, progress, scalars, epoch, kb, mbusy) -> mbusy runs kb
 * epochs of a horizon plan (contention pass, dual-socket solve, progress/
 * PMU/drift/warmth pass) with the reference loop's expressions, in its
 * order, on C doubles.  Built with -O2 -ffp-contract=off -fno-fast-math,
 * each + - * / rounds as a Python float operation does; pow is the libm
 * one float.__pow__ calls, whose special cases go through float.__pow__.
 * A zero divisor raises ZeroDivisionError.  Live fields are read once per
 * horizon and written back once, only those the loop assigns; lists shared
 * between rows are de-duplicated by identity, so drifts apply in row order.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>

/* Live attributes, and the progress-row field of the object holding each. */
enum { PENDING, BUSY, DONE, SLICE, BURST, INSTR, REFS, MISSES, LOCAL, REMOTE, NLIVE };
static const char *NAMES[NLIVE] = {"overhead_pending_s", "busy_time_s",
    "instructions_done", "slice_used_s", "run_burst_remaining_s", "instructions",
    "llc_refs", "llc_misses", "local_accesses", "remote_accesses"};
static const int OWNER[NLIVE] = {18, 18, 13, 12, 12, 14, 14, 14, 14, 14};
static PyObject *names[NLIVE];

typedef struct {
    double c, a, rp, cb, ml, ck, n2, minmr, span, shape, d, nsl, cf, total, live[NLIVE];
    int nd0, bad, has_total, pend_set;
    /* Values of the row's lists: the slice row and ``overall`` (r0, r1),
     * PMU node accesses, scratch (x0, x1, miss rate), warmth (w, share). */
    double *row, *over, *na, *scr, *warm;
    PyObject *owner[NLIVE];                                  /* borrowed */
} Slot;

/* One live list, its values, and a bit per item the replay assigns. */
typedef struct { PyObject *list; double v[3]; Py_ssize_t len; int assigned; } Cell;

/* Row constants: (progress row?, field index, Slot member). */
#define K(p, i, f) {p, i, offsetof(Slot, f)}
static const struct { int prog, idx; size_t off; } CONSTS[] = {
    K(0, 0, c), K(0, 1, a), K(0, 4, rp), K(0, 5, cb), K(0, 6, ml), K(0, 7, ck),
    K(0, 8, n2), K(0, 12, minmr), K(0, 13, span), K(0, 14, shape), K(1, 10, d),
    K(1, 11, nsl), K(1, 17, cf),
};

#define DIV(out, x, y) do { double y_ = (y); if (y_ == 0.0) goto zerodiv; (out) = (x) / y_; } while (0)
/* Queueing inflation: ``cap`` from the knee on, else 1 / (1 - rho); the
 * knee (1 - 1 / cap) is below 1, so the divisor is never zero. */
#define INFLATE(rho) ((rho) >= knee ? cap : 1.0 / (1.0 - (rho)))

static int num(PyObject *o, double *out)
{
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* The values of ``lst`` (``len`` floats), read on first sight only. */
static double *cell_of(PyObject *lst, Py_ssize_t len, int assigned, Cell *cells, Py_ssize_t *n)
{
    Py_ssize_t i, j;
    Cell *cell;
    for (i = 0; i < *n && cells[i].list != lst; i++) {}
    cell = &cells[i];
    if (i == *n) {
        if (!PyList_Check(lst) || PyList_GET_SIZE(lst) != len) {
            PyErr_Format(PyExc_ValueError, "a replay list must hold %zd floats", len);
            return NULL;
        }
        cell->list = lst, cell->len = len;
        for (j = 0; j < len; j++)
            if (num(PyList_GET_ITEM(lst, j), &cell->v[j]) < 0)
                return NULL;
        (*n)++;
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

static int load(Slot *s, PyObject *cr, PyObject *pr, Cell *cells, Py_ssize_t *n)
{
    PyObject **C = PyTuple_Check(cr) && PyTuple_GET_SIZE(cr) == 16 ? &PyTuple_GET_ITEM(cr, 0) : NULL;
    PyObject **P = PyTuple_Check(pr) && PyTuple_GET_SIZE(pr) == 19 ? &PyTuple_GET_ITEM(pr, 0) : NULL;
    size_t k;
    if (!C || !P || C[2] != P[0] || C[3] != P[1] || C[9] != P[7] || C[11] != P[16]) {
        PyErr_SetString(PyExc_ValueError, "a slot's rows are a 16- and a 19-tuple sharing lists");
        return -1;
    }
    for (k = 0; k < sizeof CONSTS / sizeof CONSTS[0]; k++)
        if (num((CONSTS[k].prog ? P : C)[CONSTS[k].idx], (double *)((char *)s + CONSTS[k].off)) < 0)
            return -1;
    if ((s->nd0 = PyObject_IsTrue(C[10])) < 0 || (s->bad = PyObject_IsTrue(C[15])) < 0
        || ((s->has_total = P[9] != Py_None) && num(P[9], &s->total) < 0))
        return -1;
    for (k = 0; k < NLIVE; k++) {
        PyObject *v = PyObject_GetAttr(s->owner[k] = P[OWNER[k]], names[k]);
        int rc = v == NULL ? -1 : num(v, &s->live[k]);
        Py_XDECREF(v);
        if (rc < 0)
            return -1;
    }
    const int drift = s->d > 0 ? 3 : 0;     /* a drift assigns both items */
    return (s->row = cell_of(P[0], 2, drift, cells, n)) == NULL
        || (s->over = cell_of(P[1], 2, drift, cells, n)) == NULL
        || (s->na = cell_of(P[15], 2, 3, cells, n)) == NULL
        || (s->scr = cell_of(P[7], 3, 7, cells, n)) == NULL
        || (s->warm = cell_of(P[16], 2, 1, cells, n)) == NULL ? -1 : 0;
}

static PyObject *replay(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *cont, *prog, *result = NULL;
    double epoch, mbusy, hit, dram, bw0, bw1, qbw, s_dram, s_remote, cap, knee, bpm;
    Py_ssize_t kb, n, i, j, t, ncells = 0;
    int k;
    Slot *slots = NULL;
    Cell *cells = NULL;
    if (!PyArg_ParseTuple(args, "O!O!(dddddddddd)dnd", &PyTuple_Type, &cont,
                          &PyTuple_Type, &prog, &hit, &dram, &bw0, &bw1, &qbw,
                          &s_dram, &s_remote, &cap, &knee, &bpm, &epoch, &kb, &mbusy))
        return NULL;
    if (PyTuple_GET_SIZE(cont) != (n = PyTuple_GET_SIZE(prog)) || kb < 1)
        return PyErr_Format(PyExc_ValueError, "need a contention row per progress row, kb >= 1");
    slots = PyMem_Calloc(n + 1, sizeof(Slot));
    cells = PyMem_Calloc(5 * n + 1, sizeof(Cell));        /* five lists per row */
    if (slots == NULL || cells == NULL)
        return PyMem_Free(slots), PyMem_Free(cells), PyErr_NoMemory();
    for (i = 0; i < n; i++)
        if (load(&slots[i], PyTuple_GET_ITEM(cont, i), PyTuple_GET_ITEM(prog, i),
                 cells, &ncells) < 0)
            goto done;
    for (t = 0; t < kb; t++) {
        double imc0 = 0.0, imc1 = 0.0, qpi = 0.0, rho0, rho1, rhoq, dram0, dram1, far0, far1;
        for (i = 0; i < n; i++) {               /* miss curve, page mix, round 1 */
            Slot *s = &slots[i];
            double *scr = s->scr, f, missing, m0, m1, sum, mr, stall, rate, tr;
            f = s->bad ? 1.0 : s->warm[1] * s->warm[0];
            if (s->shape == 1.0) missing = 1.0 - f;
            else if (power(1.0 - f, s->shape, &missing) < 0) goto done;
            scr[2] = mr = s->minmr + s->span * missing;
            m0 = s->c * s->row[0] + s->a * s->over[0];
            m1 = s->c * s->row[1] + s->a * s->over[1];
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
        DIV(rho0, imc0, bw0);                   /* the dual-socket solve */
        DIV(rho1, imc1, bw1);
        DIV(rhoq, qpi, qbw);
        dram0 = s_dram * INFLATE(rho0), dram1 = s_dram * INFLATE(rho1);
        far0 = dram0 + s_remote * INFLATE(rhoq), far1 = dram1 + s_remote * INFLATE(rhoq);
        for (i = 0; i < n; i++) {               /* rates, progress, PMU, drift, warmth */
            Slot *s = &slots[i];
            double *live = s->live, x0 = s->scr[0], x1 = s->scr[1], mr = s->scr[2];
            double pen, stall, rate, compute = epoch, done, r, mi, a0, a1, local;
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
            r = done * s->rp, mi = r * mr, a0 = mi * x0, a1 = mi * x1;
            local = s->nd0 ? a0 : a1;
            s->na[0] += a0, s->na[1] += a1;
            live[INSTR] += done, live[REFS] += r, live[MISSES] += mi;
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
            s->warm[0] = 1.0 - (1.0 - s->warm[0]) * s->cf;
        }
    }
    for (i = 0; i < n; i++)                     /* write back what the loop assigned */
        for (k = slots[i].pend_set ? PENDING : BUSY; k < NLIVE; k++) {
            PyObject *v = PyFloat_FromDouble(slots[i].live[k]);
            int rc = v == NULL ? -1 : PyObject_SetAttr(slots[i].owner[k], names[k], v);
            Py_XDECREF(v);
            if (rc < 0) goto done;
        }
    for (i = 0; i < ncells; i++)
        for (j = 0; j < cells[i].len; j++) {
            PyObject *v;
            if ((cells[i].assigned >> j & 1) && ((v = PyFloat_FromDouble(cells[i].v[j])) == NULL
                || PyList_SetItem(cells[i].list, j, v) < 0))  /* steals v */
                goto done;
        }
    result = PyFloat_FromDouble(mbusy);
    goto done;
zerodiv:
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
done:
    PyMem_Free(slots);
    PyMem_Free(cells);
    return result;
}

static PyMethodDef methods[] = {{"replay", replay, METH_VARARGS,
    "Replay kb epochs of a horizon plan; returns busy time."}, {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_replay", NULL, -1, methods,
                                    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__replay(void)
{
    int k;
    for (k = 0; k < NLIVE; k++)
        if ((names[k] = PyUnicode_InternFromString(NAMES[k])) == NULL)
            return NULL;
    return PyModule_Create(&module);
}
