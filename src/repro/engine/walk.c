/* Native frontier walk of the batch timing engine (repro.engine.batch_sim).
 *
 * Runs the recurrence of repro.engine.fast_sim over a LoweredTrace, one
 * config (column k) at a time. The knob-dependent terms are computed
 * inline with the same IEEE operations, in the same order, as the NumPy
 * expressions over the lowered arrays; built with -ffp-contract=off and
 * without fast-math, the end times are bit-identical to simulate_fast.
 * Every time is >= 0, so a running max over the barrier segment equals
 * the segment maximum exactly.
 *
 * Record kinds are the repro.engine.lower LKIND_* codes. */
#include <stdint.h>
#include <string.h>

enum { SCALAR = 0, VARITH = 1, VMEM = 2, BARRIER = 3, CSR = 4 };

/* indices into the column-pointer table `col` */
enum { SC_ISSUE, SC_L2_HITS, SC_DRAM, SC_P, SC_BW, VA_OCC,
       VM_ADDR, VM_LINES, VM_L2_LINES, VM_TXNS, VM_DRAM };

/* indices into the scalar parameter table `prm` */
enum { PIPE_LAT, PIPE, DISPATCH, VSETVL, XFER, LINE_MSHRS, CHAINING,
       OOO, Q_DEPTH };

static double mx(double a, double b) { return a >= b ? a : b; }

void repro_walk(int64_t n, const int8_t *kind, const int64_t *dep,
                const int64_t *slot, const uint8_t *sdest,
                const double *const *col, const int8_t *first,
                const double *prm, int64_t K, const double *lat,
                const double *den, const double *num, const double *l2,
                double *chain, double *comp, double *ring, double *t_end)
{
    const double *sc_issue = col[SC_ISSUE], *sc_l2 = col[SC_L2_HITS],
        *sc_dram = col[SC_DRAM], *sc_p = col[SC_P], *sc_bw = col[SC_BW],
        *va_occ = col[VA_OCC], *vm_addr = col[VM_ADDR],
        *vm_lines = col[VM_LINES], *vm_l2 = col[VM_L2_LINES],
        *vm_txns = col[VM_TXNS], *vm_dram = col[VM_DRAM];
    const int chaining = prm[CHAINING] != 0, ooo = prm[OOO] != 0;
    const int64_t q = (int64_t)prm[Q_DEPTH];

    for (int64_t k = 0; k < K; k++) {
        const double LAT = lat[k], DEN = den[k], NUM = num[k], L2 = l2[k];
        double ts = 0.0, ta = 0.0, tg = 0.0, tm = 0.0, seg = 0.0;
        double s, c, fl, r, busy;
        int64_t nm = 0;
        memset(chain, 0, (size_t)n * sizeof(double));
        memset(comp, 0, (size_t)n * sizeof(double));
        for (int64_t i = 0; i < n; i++) {
            const int64_t d = dep[i], j = slot[i];
            switch (kind[i]) {
            case SCALAR:
                ts += mx(sc_issue[j] + sc_l2[j] * L2 / sc_p[j]
                         + sc_dram[j] * LAT / sc_p[j],
                         sc_bw[j] * DEN / NUM);
                break;
            case CSR:
                ts += prm[VSETVL];
                chain[i] = comp[i] = ts;
                break;
            case BARRIER:
                s = mx(mx(ts, ta), seg);
                tm = tm <= s ? tm : s;
                ts = ta = tg = chain[i] = comp[i] = s;
                seg = 0.0;
                break;
            case VARITH:
                ts += prm[DISPATCH];
                fl = 0.0;
                if (d < 0)
                    s = mx(ts, ta);
                else if (chaining) {
                    s = mx(mx(chain[d] + prm[PIPE], ts), ta);
                    fl = comp[d] + prm[PIPE];
                } else
                    s = mx(mx(ts, comp[d]), ta);
                ta = s + va_occ[j];
                c = mx(ta + prm[PIPE_LAT], fl);
                chain[i] = s;
                comp[i] = c;
                seg = mx(seg, c);
                if (sdest[i])
                    ts = mx(ts, c + prm[XFER]);
                break;
            case VMEM:
                ts += prm[DISPATCH];
                fl = 0.0;
                if (d < 0)
                    r = ts;
                else if (chaining) {
                    r = mx(chain[d] + prm[PIPE], ts);
                    fl = comp[d] + prm[PIPE];
                } else
                    r = mx(ts, comp[d]);
                if (ooo) {      /* the AGU slot is reserved in order */
                    tg = mx(tg, ts);
                    if (nm >= q)
                        tg = mx(tg, ring[nm % q]);
                    s = mx(tg, r);
                    tg = tg + vm_addr[j];
                } else {
                    s = mx(r, tg);
                    if (nm >= q)
                        s = mx(s, ring[nm % q]);
                    tg = s + vm_addr[j];
                }
                busy = mx(vm_addr[j],
                          mx(vm_lines[j], vm_l2[j] + vm_txns[j] * DEN / NUM));
                chain[i] = s + (first[j] == 2 ? LAT : first[j] == 1 ? L2 : 0.0);
                c = mx(chain[i] + busy, fl);
                if (vm_dram[j] > 0) {
                    tm = mx(tm, s + LAT) + vm_dram[j] * LAT / prm[LINE_MSHRS];
                    c = mx(c, tm);
                }
                ring[nm % q] = c;
                nm++;
                comp[i] = c;
                seg = mx(seg, c);
                break;
            }
        }
        t_end[k] = mx(mx(ts, ta), seg);
    }
}
