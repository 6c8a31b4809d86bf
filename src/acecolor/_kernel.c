/* Compiled search kernel for acyclic edge colorings.
 *
 * Same search as ``_kernel_py``: backtracking over edges in the given
 * order, lowest color first, properness and bichromatic-cycle pruning, and
 * a first-use symmetry break on colors, so both return the same coloring
 * (or None, or False past the node budget) for every input. The
 * backtracking is a loop over an explicit per-depth ``maxc`` array, so no
 * input can exhaust the C stack.
 *
 * ``peeling_order`` mirrors ``_kernel_py.peeling_order``: the same order
 * and the same input checks, from a binary heap of vertices keyed by
 * (degree, id) and a per-vertex array of the vertex's remaining edges.
 *
 * ``trace_faces`` mirrors ``_kernel_py.trace_faces``: the same faces, as
 * their boundary vertices in walk order, in the same order, and the same
 * input checks, over the darts stored row by row. The reverse of each dart
 * is found in O(n + m) from the darts bucketed by their head, never by
 * scanning another vertex's row, so a hub costs no more than its darts.
 *
 * ``index_edges`` mirrors ``_kernel_py.index_edges``: the same sorted edges,
 * rows and degrees, and the same message for the first bad entry, formatted
 * from the entry's own objects. Repeats are found in O(n + m) from the
 * entries sorted by (lo, hi, index) with two counting sorts.
 *
 * ``read_drawing`` is the C kernel's own fast path (``kernel.py`` states
 * its contract; ``_kernel_py`` returns None): it reads the canonical text
 * that ``embedding._read_drawing`` also reads, scanning the bytes once into
 * C numbers before it makes any Python object.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

/* vcol[v*stride + c] = w+1 if vertex v has an edge of color c to w, else 0 */
static int closes_cycle(const int *vcol, Py_ssize_t stride, int u, int v, int c, int k)
{
    for (int b = 1; b <= k; b++) {
        if (b == c || !vcol[u * stride + b] || !vcol[v * stride + b])
            continue;
        int cur = u, use = b;
        for (;;) {
            int nxt = vcol[cur * stride + use];
            if (!nxt)
                break;
            cur = nxt - 1;
            if (cur == v) {
                if (use == b)
                    return 1;
                break;
            }
            use = use == c ? b : c;
        }
    }
    return 0;
}

/* Copy the ints of a sequence into out, each checked to lie in [0, bound). */
static int read_ints(PyObject *seq, Py_ssize_t m, int *out, Py_ssize_t bound, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (!fast)
        return -1;
    int rc = -1;
    if (PySequence_Fast_GET_SIZE(fast) != m) {
        PyErr_Format(PyExc_ValueError, "%s must have one entry per edge", what);
        goto done;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        Py_ssize_t x = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(fast, i), NULL);
        if (x == -1 && PyErr_Occurred())
            goto done;
        if (x < 0 || x >= bound) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %zd is out of range [0, %zd)", what, i, x, bound);
            goto done;
        }
        out[i] = (int)x;
    }
    rc = 0;
done:
    Py_DECREF(fast);
    return rc;
}

static PyObject *find_coloring(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj, *k_obj, *eu_seq, *ev_seq, *order_seq, *budget_obj = NULL, *result = NULL;
    if (!PyArg_ParseTuple(args, "OOOOO|O:find_coloring", &n_obj, &k_obj, &eu_seq, &ev_seq,
                          &order_seq, &budget_obj))
        return NULL;
    /* out-of-range ints clip to the Py_ssize_t range, which keeps their
     * meaning here; a negative max_nodes means no node budget */
    Py_ssize_t n = PyNumber_AsSsize_t(n_obj, NULL);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t k_arg = PyNumber_AsSsize_t(k_obj, NULL);
    if (k_arg == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t max_nodes = budget_obj ? PyNumber_AsSsize_t(budget_obj, NULL) : -1;
    if (max_nodes == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t m = PySequence_Size(eu_seq);
    if (m < 0)
        return NULL;
    if (m >= INT_MAX || n >= INT_MAX) /* vertex ids + 1 and colors are stored as int */
        return PyErr_NoMemory();
    /* k <= 0 refutes; colors above m are never reached (each edge opens at
     * most one new color) */
    int k = (int)(k_arg < 0 ? 0 : k_arg < m ? k_arg : m);
    Py_ssize_t stride = (Py_ssize_t)k + 1, vsize = n > 0 ? n : 0;
    if (vsize > (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int) - 6 * m) / stride)
        return PyErr_NoMemory();
    /* one block: eu | ev | order | colors | maxc (m+1) | vcol */
    int *buf = calloc(5 * m + 1 + vsize * stride, sizeof(int));
    if (!buf)
        return PyErr_NoMemory();
    int *eu = buf, *ev = buf + m, *order = buf + 2 * m, *colors = buf + 3 * m;
    int *maxc = buf + 4 * m, *vcol = buf + 5 * m + 1;
    if (read_ints(eu_seq, m, eu, n, "eu") || read_ints(ev_seq, m, ev, n, "ev")
        || read_ints(order_seq, m, order, m, "order"))
        goto done;
    for (Py_ssize_t i = 0; i < m; i++) { /* colors is still zero: mark each edge seen */
        if (colors[order[i]]++) {
            PyErr_SetString(PyExc_ValueError, "order must be a permutation of range(m)");
            goto done;
        }
    }
    memset(colors, 0, (size_t)m * sizeof(int));
    if (m == 0) {
        result = PyList_New(0);
        goto done;
    }
    if (k <= 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    Py_ssize_t i = 0, nodes = 0;
    while (i >= 0 && i < m) {
        if (++nodes > max_nodes && max_nodes >= 0) { /* budget spent: no answer yet */
            result = Py_NewRef(Py_False);
            goto done;
        }
        if (!(nodes & 0xFFFFF) && PyErr_CheckSignals())
            goto done;
        int e = order[i], u = eu[e], v = ev[e], c = colors[e];
        int limit = maxc[i] + 1 < k ? maxc[i] + 1 : k;
        if (c) /* back from depth i+1: take back this depth's color */
            vcol[u * stride + c] = vcol[v * stride + c] = 0;
        for (c++; c <= limit; c++)
            if (!vcol[u * stride + c] && !vcol[v * stride + c] && !closes_cycle(vcol, stride, u, v, c, k))
                break;
        if (c > limit) {
            colors[e] = 0;
            i--;
            continue;
        }
        colors[e] = c;
        vcol[u * stride + c] = v + 1;
        vcol[v * stride + c] = u + 1;
        maxc[i + 1] = c > maxc[i] ? c : maxc[i];
        i++;
    }
    if (i < 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyList_New(m);
    for (Py_ssize_t j = 0; result && j < m; j++) {
        PyObject *x = PyLong_FromLong(colors[j]);
        if (!x)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, j, x);
    }
done:
    free(buf);
    return result;
}

/* The heap of peeling_order: vertices ordered by (deg, id), with hpos[v]
 * the slot of vertex v in heap. Degrees only fall, so keys only move up. */
typedef struct {
    int *heap, *hpos;
    const int *deg;
    Py_ssize_t size;
} VertexHeap;

static int heap_less(const VertexHeap *h, int a, int b)
{
    return h->deg[a] < h->deg[b] || (h->deg[a] == h->deg[b] && a < b);
}

static void heap_place(VertexHeap *h, Py_ssize_t i, int v)
{
    h->heap[i] = v;
    h->hpos[v] = (int)i;
}

static void heap_sift_up(VertexHeap *h, int v)
{
    Py_ssize_t i = h->hpos[v];
    while (i > 0) {
        int parent = h->heap[(i - 1) / 2];
        if (!heap_less(h, v, parent))
            break;
        heap_place(h, i, parent);
        i = (i - 1) / 2;
    }
    heap_place(h, i, v);
}

static void heap_sift_down(VertexHeap *h, Py_ssize_t i)
{
    int v = h->heap[i];
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= h->size)
            break;
        if (c + 1 < h->size && heap_less(h, h->heap[c + 1], h->heap[c]))
            c++;
        if (!heap_less(h, h->heap[c], v))
            break;
        heap_place(h, i, h->heap[c]);
        i = c;
    }
    heap_place(h, i, v);
}

static PyObject *peeling_order(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj, *eu_seq, *ev_seq, *result = NULL;
    if (!PyArg_ParseTuple(args, "OOO:peeling_order", &n_obj, &eu_seq, &ev_seq))
        return NULL;
    Py_ssize_t n = PyNumber_AsSsize_t(n_obj, NULL);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t m = PySequence_Size(eu_seq);
    if (m < 0)
        return NULL;
    if (m >= INT_MAX / 2 || n >= INT_MAX) /* edge ends (2e + side) are stored as int */
        return PyErr_NoMemory();
    Py_ssize_t vsize = n > 0 ? n : 0;
    /* one block: eu | ev | order | inc (2m) | pos (2m) | deg | start (n+1) | heap | hpos */
    int *buf = calloc(7 * m + 4 * vsize + 1, sizeof(int));
    if (!buf)
        return PyErr_NoMemory();
    int *eu = buf, *ev = buf + m, *order = buf + 2 * m, *inc = buf + 3 * m, *pos = buf + 5 * m;
    int *deg = buf + 7 * m, *start = deg + vsize, *heap = start + vsize + 1, *hpos = heap + vsize;
    if (read_ints(eu_seq, m, eu, n, "eu") || read_ints(ev_seq, m, ev, n, "ev"))
        goto done;
    for (Py_ssize_t e = 0; e < m; e++) {
        if (eu[e] == ev[e]) {
            PyErr_Format(PyExc_ValueError, "edge %zd is a loop at vertex %d", e, eu[e]);
            goto done;
        }
        deg[eu[e]]++;
        deg[ev[e]]++;
    }
    /* inc[start[v] .. start[v] + deg[v]) lists the ends 2e + side of v's
     * remaining edges (side 0 at eu[e], 1 at ev[e]); pos[end] is its slot */
    for (Py_ssize_t v = 0; v < vsize; v++) {
        start[v + 1] = start[v] + deg[v];
        hpos[v] = start[v]; /* the next free slot while filling */
    }
    for (int a = 0; a < 2 * m; a++) {
        int x = a & 1 ? ev[a >> 1] : eu[a >> 1];
        pos[a] = hpos[x]++;
        inc[pos[a]] = a;
    }
    /* a repeated edge: each vertex lists its ends by edge index, so the
     * first edge to each neighbor w is the one a repeat repeats; report
     * the least repeating edge. heap[w] = v + 1 marks w seen from v, and
     * hpos[w] is then the first edge from v to w. */
    Py_ssize_t repeat = m;
    int first = 0;
    for (Py_ssize_t v = 0; v < vsize; v++) {
        for (int s = start[v]; s < start[v + 1]; s++) {
            int a = inc[s], e = a >> 1, w = a & 1 ? eu[e] : ev[e];
            if (heap[w] != v + 1) {
                heap[w] = (int)v + 1;
                hpos[w] = e;
            } else if (e < repeat) {
                repeat = e;
                first = hpos[w];
            }
        }
    }
    if (repeat < m) {
        PyErr_Format(PyExc_ValueError, "edge %zd repeats edge %d", repeat, first);
        goto done;
    }
    VertexHeap h = {heap, hpos, deg, 0};
    for (Py_ssize_t v = 0; v < vsize; v++)
        if (deg[v])
            heap_place(&h, h.size++, (int)v);
    for (Py_ssize_t i = h.size / 2; i-- > 0;)
        heap_sift_down(&h, i);
    for (Py_ssize_t j = m; j-- > 0;) {
        while (!deg[heap[0]]) { /* vertices without edges left rise to the top */
            heap_place(&h, 0, heap[--h.size]);
            heap_sift_down(&h, 0);
        }
        int v = heap[0], u = -1, a = -1;
        for (int s = start[v]; s < start[v] + deg[v]; s++) { /* the neighbor of least (deg, id) */
            int b = inc[s], x = b & 1 ? eu[b >> 1] : ev[b >> 1];
            if (u < 0 || deg[x] < deg[u] || (deg[x] == deg[u] && x < u)) {
                u = x;
                a = b;
            }
        }
        order[j] = a >> 1;
        /* unlink the edge's end at v and at u: the last remaining end of
         * each moves into the freed slot */
        int ends[2] = {a, a ^ 1}, at[2] = {v, u};
        for (int t = 0; t < 2; t++) {
            int last = inc[start[at[t]] + --deg[at[t]]];
            inc[pos[ends[t]]] = last;
            pos[last] = pos[ends[t]];
        }
        heap_sift_up(&h, v);
        heap_sift_up(&h, u);
    }
    result = PyList_New(m);
    for (Py_ssize_t j = 0; result && j < m; j++) {
        PyObject *x = PyLong_FromLong(order[j]);
        if (!x)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, j, x);
    }
done:
    free(buf);
    return result;
}

static PyObject *trace_faces(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj, *rot_seq, *rows, *result = NULL, **fast = NULL, **items = NULL;
    int *buf = NULL;
    if (!PyArg_ParseTuple(args, "OO:trace_faces", &n_obj, &rot_seq))
        return NULL;
    Py_ssize_t n = PyNumber_AsSsize_t(n_obj, NULL);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    rows = PySequence_Fast(rot_seq, "rot must be a sequence of rows");
    if (!rows)
        return NULL;
    if (PySequence_Fast_GET_SIZE(rows) != n) {
        PyErr_SetString(PyExc_ValueError, "rot must have one row per vertex");
        goto done;
    }
    if (n >= INT_MAX) /* vertex ids + 1 are stored as int */
        goto nomem;
    fast = calloc(n + 1, sizeof(PyObject *));
    if (!fast)
        goto nomem;
    Py_ssize_t darts = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        fast[v] = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, v), "each row of rot must be a sequence");
        if (!fast[v])
            goto done;
        darts += PySequence_Fast_GET_SIZE(fast[v]);
    }
    if (darts >= INT_MAX) /* dart slots are stored as int */
        goto nomem;
    /* one block: start | in_start (n+1 each) | cursor | mark | at (n each) |
     * head | tail | rev | in_slot | used (one per dart) */
    buf = calloc(5 * n + 2 + 5 * darts, sizeof(int));
    /* items[s]: the row entry of dart s, reused as the vertices of the walks */
    items = malloc((darts + 1) * sizeof(PyObject *));
    if (!buf || !items)
        goto nomem;
    int *start = buf, *in_start = start + n + 1, *cursor = in_start + n + 1, *mark = cursor + n;
    int *at = mark + n, *head = at + n, *tail = head + darts, *rev = tail + darts;
    int *in_slot = rev + darts, *used = in_slot + darts;
    /* the darts row by row: dart s = start[v] + i is (v, rot[v][i]), with
     * tail v and head rot[v][i]; mark[w] = v + 1 and at[w] = i once row v
     * has listed w at slot i */
    for (Py_ssize_t v = 0; v < n; v++) {
        Py_ssize_t len = PySequence_Fast_GET_SIZE(fast[v]);
        PyObject **row = PySequence_Fast_ITEMS(fast[v]);
        start[v + 1] = start[v] + (int)len;
        for (Py_ssize_t i = 0; i < len; i++) {
            Py_ssize_t w = PyNumber_AsSsize_t(row[i], NULL);
            if (w == -1 && PyErr_Occurred())
                goto done;
            if (w < 0 || w >= n) {
                PyErr_Format(PyExc_ValueError, "rot[%zd][%zd] = %S is out of range [0, %zd)", v, i, row[i], n);
                goto done;
            }
            if (w == v) {
                PyErr_Format(PyExc_ValueError, "rot[%zd][%zd] is a loop at vertex %zd", v, i, v);
                goto done;
            }
            if (mark[w] == v + 1) {
                PyErr_Format(PyExc_ValueError, "rot[%zd][%zd] repeats rot[%zd][%d]", v, i, v, at[w]);
                goto done;
            }
            mark[w] = (int)v + 1;
            at[w] = (int)i;
            int s = start[v] + (int)i;
            tail[s] = (int)v;
            head[s] = (int)w;
            items[s] = row[i];
            in_start[w + 1]++;
        }
    }
    /* in_slot[in_start[w] .. in_start[w + 1]) lists the darts into w, in
     * slot order */
    for (Py_ssize_t w = 0; w < n; w++) {
        in_start[w + 1] += in_start[w];
        cursor[w] = in_start[w];
    }
    for (int s = 0; s < darts; s++)
        in_slot[cursor[head[s]]++] = s;
    /* rev[s]: the slot of the reverse of dart s. For each w, mark the
     * entries of row w (mark[x] = -(w + 1), at[x] = the slot of (w, x)),
     * then look up the tail of each dart into w; report the least dart
     * without a reverse. */
    int missing = (int)darts;
    for (Py_ssize_t w = 0; w < n; w++) {
        for (int s = start[w]; s < start[w + 1]; s++) {
            mark[head[s]] = -(int)w - 1;
            at[head[s]] = s;
        }
        for (int j = in_start[w]; j < in_start[w + 1]; j++) {
            int s = in_slot[j], v = tail[s];
            if (mark[v] == -(int)w - 1)
                rev[s] = at[v];
            else if (s < missing)
                missing = s;
        }
    }
    if (missing < darts) {
        PyErr_Format(PyExc_ValueError, "dart (%d, %d) has no reverse: %d is not in rot[%d]",
                     tail[missing], head[missing], tail[missing], head[missing]);
        goto done;
    }
    /* the walks: after dart s = (v, w) comes the dart that follows its
     * reverse (w, v) in row w, cyclically; each walk starts at its first
     * unused slot and lists the tail of each dart, the row entry of its
     * reverse. */
    result = PyList_New(0);
    for (int s0 = 0; result && s0 < darts; s0++) {
        if (used[s0])
            continue;
        Py_ssize_t len = 0;
        int s = s0;
        do {
            len++;
            s = rev[s] + 1 == start[head[s] + 1] ? start[head[s]] : rev[s] + 1;
        } while (s != s0);
        PyObject *walk = PyTuple_New(len);
        for (Py_ssize_t j = 0; walk && j < len; j++) {
            used[s] = 1;
            PyTuple_SET_ITEM(walk, j, Py_NewRef(items[rev[s]]));
            s = rev[s] + 1 == start[head[s] + 1] ? start[head[s]] : rev[s] + 1;
        }
        if (!walk || PyList_Append(result, walk) < 0)
            Py_CLEAR(result);
        Py_XDECREF(walk);
    }
    goto done;
nomem:
    PyErr_NoMemory();
done:
    free(buf);
    free(items);
    if (fast) {
        for (Py_ssize_t v = 0; v < n; v++)
            Py_XDECREF(fast[v]);
        free(fast);
    }
    Py_DECREF(rows);
    return result;
}

/* A Python int for each vertex id below size, made on its first use and
 * kept in cache; an id at or above size gets an int of its own. */
static PyObject *vertex_int(PyObject **cache, Py_ssize_t size, long long v)
{
    if (v >= size)
        return PyLong_FromLongLong(v);
    if (!cache[v] && !(cache[v] = PyLong_FromLongLong(v)))
        return NULL;
    return Py_NewRef(cache[v]);
}

static void free_ints(PyObject **cache, Py_ssize_t size)
{
    for (Py_ssize_t v = 0; cache && v < size; v++)
        Py_XDECREF(cache[v]);
    free(cache);
}

static PyObject *int_pair(PyObject **cache, Py_ssize_t size, long long a, long long b)
{
    PyObject *x = vertex_int(cache, size, a), *y = x ? vertex_int(cache, size, b) : NULL;
    PyObject *t = y ? PyTuple_New(2) : NULL;
    if (!t) {
        Py_XDECREF(x);
        Py_XDECREF(y);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, x);
    PyTuple_SET_ITEM(t, 1, y);
    return t;
}

/* The checks of index_edges, in the order each entry takes them. */
enum { EDGE_OK, EDGE_NOT_PAIR, EDGE_RANGE, EDGE_LOOP, EDGE_REPEAT };

/* An int's value, or -1 for one outside the Py_ssize_t range. */
static Py_ssize_t endpoint(PyObject *x)
{
    Py_ssize_t v = PyLong_AsSsize_t(x);
    if (v == -1 && PyErr_Occurred())
        PyErr_Clear();
    return v;
}

/* The ends of the entry e of index_edges as lo < hi, or the first check e
 * fails short of a repeat. */
static int edge_ends(PyObject *e, Py_ssize_t n, int *lo, int *hi)
{
    if (!(PyTuple_Check(e) || PyList_Check(e)) || PySequence_Fast_GET_SIZE(e) != 2
        || !PyLong_Check(PySequence_Fast_GET_ITEM(e, 0)) || !PyLong_Check(PySequence_Fast_GET_ITEM(e, 1)))
        return EDGE_NOT_PAIR;
    Py_ssize_t u = endpoint(PySequence_Fast_GET_ITEM(e, 0)), v = endpoint(PySequence_Fast_GET_ITEM(e, 1));
    if (u < 0 || u >= n || v < 0 || v >= n)
        return EDGE_RANGE;
    if (u == v)
        return EDGE_LOOP;
    *lo = (int)(u < v ? u : v);
    *hi = (int)(u < v ? v : u);
    return EDGE_OK;
}

/* The message of index_edges for the entry e that fails the check kind,
 * formatted from e's own objects. */
static void edge_error(int kind, PyObject *e, Py_ssize_t n)
{
    if (kind == EDGE_NOT_PAIR) {
        PyErr_Format(PyExc_ValueError, "edge %R is not a pair of ints", e);
        return;
    }
    /* held while they are formatted, in case e is a list */
    PyObject *a = Py_NewRef(PySequence_Fast_GET_ITEM(e, 0)), *b = Py_NewRef(PySequence_Fast_GET_ITEM(e, 1));
    if (kind == EDGE_RANGE)
        PyErr_Format(PyExc_ValueError, "edge (%S, %S) has an endpoint outside 0..%zd", a, b, n - 1);
    else if (kind == EDGE_LOOP)
        PyErr_Format(PyExc_ValueError, "self-loop at vertex %S", a);
    else if (endpoint(a) < endpoint(b))
        PyErr_Format(PyExc_ValueError, "duplicate edge (%R, %R)", a, b);
    else
        PyErr_Format(PyExc_ValueError, "duplicate edge (%R, %R)", b, a);
    Py_DECREF(a);
    Py_DECREF(b);
}

static PyObject *index_edges(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj, *edges_obj, *seq, *result = NULL, **ints = NULL;
    int *buf = NULL;
    if (!PyArg_ParseTuple(args, "OO:index_edges", &n_obj, &edges_obj))
        return NULL;
    Py_ssize_t n = PyNumber_AsSsize_t(n_obj, NULL);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n >= INT_MAX) /* vertex ids are stored as int */
        return PyErr_NoMemory();
    seq = PySequence_Fast(edges_obj, "edges must be iterable");
    if (!seq)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(seq), vsize = n > 0 ? n : 0;
    if (m >= INT_MAX / 2) /* row slots are stored as int */
        goto nomem;
    /* one block: lo | hi | by_hi | order (m each) | nbr (2m) | count | start (n+1 each) */
    buf = calloc(6 * m + 2 * vsize + 2, sizeof(int));
    ints = calloc(vsize + 1, sizeof(PyObject *));
    if (!buf || !ints)
        goto nomem;
    int *lo = buf, *hi = lo + m, *by_hi = hi + m, *order = by_hi + m, *nbr = order + m;
    int *count = nbr + 2 * m, *start = count + vsize + 1;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    Py_ssize_t bad = m;
    int kind = EDGE_OK;
    for (Py_ssize_t i = 0; i < m && kind == EDGE_OK; i++)
        if ((kind = edge_ends(items[i], n, &lo[i], &hi[i])) != EDGE_OK)
            bad = i;
    /* order: the entries before the first bad one by (lo, hi, index), from
     * a counting sort by hi and then a stable one by lo */
    for (Py_ssize_t i = 0; i < bad; i++)
        count[hi[i] + 1]++;
    for (Py_ssize_t v = 0; v < vsize; v++)
        count[v + 1] += count[v];
    for (Py_ssize_t i = 0; i < bad; i++)
        by_hi[count[hi[i]]++] = (int)i;
    memset(count, 0, (size_t)(vsize + 1) * sizeof(int));
    for (Py_ssize_t i = 0; i < bad; i++)
        count[lo[i] + 1]++;
    for (Py_ssize_t v = 0; v < vsize; v++)
        count[v + 1] += count[v];
    for (Py_ssize_t j = 0; j < bad; j++)
        order[count[lo[by_hi[j]]]++] = by_hi[j];
    /* a repeat sorts right after an equal edge of lower index: the first
     * bad entry is the least repeat, if it comes before bad */
    Py_ssize_t repeat = bad;
    for (Py_ssize_t j = 1; j < bad; j++) {
        int a = order[j - 1], b = order[j];
        if (lo[a] == lo[b] && hi[a] == hi[b] && b < repeat)
            repeat = b;
    }
    if (repeat < bad) {
        edge_error(EDGE_REPEAT, items[repeat], n);
        goto done;
    }
    if (bad < m) {
        edge_error(kind, items[bad], n);
        goto done;
    }
    /* the neighbor rows, nbr[start[v] .. start[v + 1]): the edges taken in
     * sorted order fill each row in ascending order */
    memset(count, 0, (size_t)(vsize + 1) * sizeof(int));
    for (Py_ssize_t i = 0; i < m; i++) {
        count[lo[i]]++;
        count[hi[i]]++;
    }
    for (Py_ssize_t v = 0; v < vsize; v++) {
        start[v + 1] = start[v] + count[v];
        count[v] = start[v]; /* the next free slot while filling */
    }
    for (Py_ssize_t j = 0; j < m; j++) {
        int e = order[j];
        nbr[count[lo[e]]++] = hi[e];
        nbr[count[hi[e]]++] = lo[e];
    }
    /* (edges, adj, degrees); a part or an entry that cannot be made
     * clears the whole */
    result = PyTuple_New(3);
    PyObject *edges = result ? PyTuple_New(m) : NULL;
    if (edges)
        PyTuple_SET_ITEM(result, 0, edges);
    PyObject *adj = edges ? PyTuple_New(vsize) : NULL;
    if (adj)
        PyTuple_SET_ITEM(result, 1, adj);
    PyObject *degrees = adj ? PyTuple_New(vsize) : NULL;
    if (!degrees) {
        Py_CLEAR(result);
        goto done;
    }
    PyTuple_SET_ITEM(result, 2, degrees);
    for (Py_ssize_t j = 0; j < m; j++) {
        PyObject *t = int_pair(ints, vsize, lo[order[j]], hi[order[j]]);
        if (!t) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(edges, j, t);
    }
    for (Py_ssize_t v = 0; v < vsize; v++) {
        PyObject *row = PyTuple_New(start[v + 1] - start[v]), *d = PyLong_FromLong(start[v + 1] - start[v]);
        if (row)
            PyTuple_SET_ITEM(adj, v, row);
        if (d)
            PyTuple_SET_ITEM(degrees, v, d);
        for (int s = start[v]; row && d && s < start[v + 1]; s++) {
            PyObject *w = vertex_int(ints, vsize, nbr[s]);
            if (!w)
                break;
            PyTuple_SET_ITEM(row, s - start[v], w);
        }
        if (PyErr_Occurred()) {
            Py_CLEAR(result);
            goto done;
        }
    }
    goto done;
nomem:
    PyErr_NoMemory();
done:
    free(buf);
    free_ints(ints, vsize);
    Py_DECREF(seq);
    return result;
}

/* read_drawing's place in the text it scans. */
typedef struct {
    const char *p, *end;
} Cursor;

/* Step over the character ch if it comes next. */
static int skip(Cursor *c, char ch)
{
    if (c->p == c->end || *c->p != ch)
        return 0;
    c->p++;
    return 1;
}

static int digit_at(const Cursor *c)
{
    return c->p < c->end && *c->p >= '0' && *c->p <= '9';
}

/* A canonical number: "0", or 1 to 18 digits without a leading zero; -1
 * if none comes next. After a 0 a further digit is left in place, for
 * the separator check that follows to refuse. */
static long long scan_number(Cursor *c)
{
    if (!digit_at(c))
        return -1;
    long long v = *c->p++ - '0';
    for (int digits = 1; v && digit_at(c); digits++) {
        if (digits == 18)
            return -1;
        v = 10 * v + (*c->p++ - '0');
    }
    return v;
}

/* A rotation token: a vertex below n, or X<i> with i below k for vertex
 * n + i; -1 if none comes next. */
static long long scan_token(Cursor *c, long long n, long long k)
{
    int crossing = skip(c, 'X');
    long long v = scan_number(c);
    if (v < 0 || v >= (crossing ? k : n))
        return -1;
    return crossing ? n + v : v;
}

static PyObject *read_drawing(PyObject *Py_UNUSED(self), PyObject *text)
{
    if (!PyUnicode_Check(text)) {
        PyErr_Format(PyExc_TypeError, "read_drawing expects a str, got %.100s", Py_TYPE(text)->tp_name);
        return NULL;
    }
    if (!PyUnicode_IS_ASCII(text))
        Py_RETURN_NONE;
    Py_ssize_t len;
    const char *s = PyUnicode_AsUTF8AndSize(text, &len);
    if (!s)
        return NULL;
    /* vals: the edge ends, the crossing pairs' ends, then per rotation line
     * its head, its length and its row. Each value takes at least two
     * characters of the text, its digits and what ends it. */
    long long *vals = malloc((len / 2 + 4) * sizeof(long long)), n, m, k = 0;
    PyObject *result = NULL, **ints = NULL;
    Py_ssize_t nv = 0, size = 0;
    if (!vals)
        return PyErr_NoMemory();
    Cursor c = {s, s + len};
    if ((n = scan_number(&c)) < 0 || !skip(&c, ' ') || (m = scan_number(&c)) < 0 || !skip(&c, '\n'))
        goto none;
    for (long long i = 0; i < 2 * m; i++)
        if ((vals[nv++] = scan_number(&c)) < 0 || !skip(&c, i % 2 ? '\n' : ' '))
            goto none;
    for (; skip(&c, 'x'); k++) {
        for (int j = 0; j < 4; j++)
            if (!skip(&c, ' ') || (vals[nv++] = scan_number(&c)) < 0)
                goto none;
        if (!skip(&c, '\n'))
            goto none;
    }
    Py_ssize_t rot_at = nv;
    long long rows = 0;
    for (; c.p < c.end; rows++) {
        if (!(skip(&c, 'r') && skip(&c, 'o') && skip(&c, 't') && skip(&c, ' ')))
            goto none;
        Py_ssize_t line = nv;
        if ((vals[nv++] = scan_token(&c, n, k)) < 0 || !skip(&c, ':') || !skip(&c, ' '))
            goto none;
        vals[nv++] = 0;
        if (skip(&c, '\n'))
            continue; /* an empty row */
        do {
            if ((vals[nv++] = scan_token(&c, n, k)) < 0)
                goto none;
            vals[line + 1]++;
        } while (skip(&c, ' '));
        if (!skip(&c, '\n'))
            goto none;
    }
    if (rows != n + k) /* the reference reader refuses too few; too many repeat a head */
        goto none;
    /* the objects: the vertex ints are shared, in a cache that the n + k
     * rotation lines bound by the text */
    size = (Py_ssize_t)(n + k);
    ints = calloc(size + 1, sizeof(PyObject *));
    if (!ints) {
        PyErr_NoMemory();
        goto done;
    }
    result = PyTuple_New(4);
    PyObject *n_int = result ? PyLong_FromLongLong(n) : NULL;
    if (n_int)
        PyTuple_SET_ITEM(result, 0, n_int);
    PyObject *edges = n_int ? PyList_New((Py_ssize_t)m) : NULL;
    if (edges)
        PyTuple_SET_ITEM(result, 1, edges);
    PyObject *pairs = edges ? PyList_New((Py_ssize_t)k) : NULL;
    if (pairs)
        PyTuple_SET_ITEM(result, 2, pairs);
    PyObject *rotation = pairs ? PyDict_New() : NULL;
    if (!rotation)
        goto fail;
    PyTuple_SET_ITEM(result, 3, rotation);
    const long long *v = vals;
    for (Py_ssize_t i = 0; i < m; i++, v += 2) {
        PyObject *e = int_pair(ints, size, v[0], v[1]);
        if (!e)
            goto fail;
        PyList_SET_ITEM(edges, i, e);
    }
    for (Py_ssize_t i = 0; i < k; i++, v += 4) {
        PyObject *p = PyTuple_New(2), *e1 = p ? int_pair(ints, size, v[0], v[1]) : NULL;
        PyObject *e2 = e1 ? int_pair(ints, size, v[2], v[3]) : NULL;
        if (p)
            PyList_SET_ITEM(pairs, i, p);
        if (e1)
            PyTuple_SET_ITEM(p, 0, e1);
        if (!e2)
            goto fail;
        PyTuple_SET_ITEM(p, 1, e2);
    }
    for (v = vals + rot_at; v < vals + nv; v += 2 + v[1]) {
        PyObject *head = vertex_int(ints, size, v[0]), *row = head ? PyList_New((Py_ssize_t)v[1]) : NULL;
        for (Py_ssize_t i = 0; row && i < v[1]; i++) {
            PyObject *w = vertex_int(ints, size, v[2 + i]);
            if (!w)
                Py_CLEAR(row);
            else
                PyList_SET_ITEM(row, i, w);
        }
        int listed = row ? PyDict_Contains(rotation, head) : -1;
        if (listed == 0 && PyDict_SetItem(rotation, head, row) < 0)
            listed = -1;
        Py_XDECREF(head);
        Py_XDECREF(row);
        if (listed < 0)
            goto fail;
        if (listed) { /* a head listed twice */
            Py_CLEAR(result);
            goto none;
        }
    }
    goto done;
fail:
    Py_CLEAR(result);
    goto done;
none:
    result = Py_NewRef(Py_None);
done:
    free(vals);
    free_ints(ints, size);
    return result;
}

static PyMethodDef methods[] = {
    {"find_coloring", find_coloring, METH_VARARGS,
     "find_coloring(n, k, eu, ev, order, max_nodes=-1) -> list[int] | None | False\n\n"
     "Mirror of ``_kernel_py.find_coloring`` (see that module for the contract):\n"
     "the colors, None when no coloring within k colors exists, or False once\n"
     "the search has visited more than max_nodes >= 0 nodes."},
    {"peeling_order", peeling_order, METH_VARARGS,
     "peeling_order(n, eu, ev) -> list[int]\n\n"
     "Mirror of ``_kernel_py.peeling_order`` (see that module for the contract):\n"
     "the edge indices in coloring order, the reverse of min-degree peeling."},
    {"trace_faces", trace_faces, METH_VARARGS,
     "trace_faces(n, rot) -> list[tuple[int, ...]]\n\n"
     "Mirror of ``_kernel_py.trace_faces`` (see that module for the contract):\n"
     "the faces of the rotation system rot, as their boundary vertices in walk order."},
    {"index_edges", index_edges, METH_VARARGS,
     "index_edges(n, edges) -> (edges, adj, degrees)\n\n"
     "Mirror of ``_kernel_py.index_edges`` (see that module for the contract):\n"
     "the sorted canonical edges, neighbor rows and degrees of a simple graph."},
    {"read_drawing", read_drawing, METH_O,
     "read_drawing(text) -> (n, edges, crossing_pairs, rotation) | None\n\n"
     "The C kernel's fast path (``acecolor.kernel`` states the contract):\n"
     "the numbers of a canonical drawing text, or None for any other text."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernel", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "c") < 0)
        Py_CLEAR(mod);
    return mod;
}
