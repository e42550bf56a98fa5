/* Co-occurrence and intensity counts of 8-bit pixels for scanskill.features.

   scanskill.features compiles this file with `cc -O2 -shared -fPIC` on
   first use and calls it through ctypes; numpy computes the same counts
   where it cannot.  A region is `rows` rows of `cols` pixels, one row every
   `stride` bytes.  Consecutive pixels count into four interleaved tables,
   so that in a run of equal pixels an increment need not wait on the one
   before it.  The tables are uint32: the caller keeps a region under 2^32
   pixels (features._kernel_for gives no kernel for a larger one).
   count_delta moves counts from one region to the next, of the same size,
   at the pixels whose level changed, within a budget its caller sets. */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define LANES 4

static void sum_lanes(const uint32_t *table, int bins, int64_t *out)
{
    for (int i = 0; i < bins; i++)
        out[i] = (int64_t)table[i * LANES] + table[i * LANES + 1] + table[i * LANES + 2]
            + table[i * LANES + 3];
}

/* Inlined with a constant shift at each call: a shift by a register count
   costs more on x86 without BMI2. */
static inline __attribute__((always_inline)) void count_pairs(
    const uint8_t *px, ptrdiff_t stride, ptrdiff_t rows, ptrdiff_t cols,
    ptrdiff_t partner, const int shift, int64_t *out)
{
    uint32_t table[64 * 64 * LANES];
    const int bins = 1 << 2 * (8 - shift);
    memset(table, 0, sizeof(uint32_t) * bins * LANES);
    for (ptrdiff_t y = 0; y < rows; y++) {
        const uint8_t *a = px + y * stride, *b = a + partner;
        ptrdiff_t x = 0;
        for (; x + LANES <= cols; x += LANES)
#pragma GCC unroll 4
            for (int k = 0; k < LANES; k++)
                table[(a[x + k] >> shift << (8 - shift) | b[x + k] >> shift) * LANES + k]++;
        for (; x < cols; x++)
            table[(a[x] >> shift << (8 - shift) | b[x] >> shift) * LANES]++;
    }
    sum_lanes(table, bins, out);
}

/* Counts of the pairs (p, p[partner]) over the region, each pixel quantized
   to `levels` levels, into out[levels][levels].  `levels` is 8, 16, 32 or
   64 (GlcmConfig checks it); any other count writes nothing. */
void pair_counts(const uint8_t *px, ptrdiff_t stride, ptrdiff_t rows, ptrdiff_t cols,
                 ptrdiff_t partner, int levels, int64_t *out)
{
    switch (levels) {
    case 8: count_pairs(px, stride, rows, cols, partner, 5, out); break;
    case 16: count_pairs(px, stride, rows, cols, partner, 4, out); break;
    case 32: count_pairs(px, stride, rows, cols, partner, 3, out); break;
    case 64: count_pairs(px, stride, rows, cols, partner, 2, out); break;
    }
}

/* Counts of each of the 256 intensities over the region, into out[256]. */
void histogram(const uint8_t *px, ptrdiff_t stride, ptrdiff_t rows, ptrdiff_t cols,
               int64_t *out)
{
    uint32_t table[256 * LANES] = {0};
    for (ptrdiff_t y = 0; y < rows; y++) {
        const uint8_t *a = px + y * stride;
        ptrdiff_t x = 0;
        for (; x + LANES <= cols; x += LANES)
#pragma GCC unroll 4
            for (int k = 0; k < LANES; k++)
                table[a[x + k] * LANES + k]++;
        for (; x < cols; x++)
            table[a[x] * LANES]++;
    }
    sum_lanes(table, 256, out);
}

/* Updates counts[n][levels][levels], the co-occurrence counts of region `prev`
   at the n (dx, dy) pairs of `offsets`, to those of region `cur`.  Returns 0
   if no byte differs; -1, counts untouched, once more than `budget` pixels, or
   from its 8th row on more than the scanned rows' share of it, changed level;
   else 1.  `scratch` holds `budget` (y, x) pairs and is never written past. */
int count_delta(const uint8_t *prev, ptrdiff_t prev_stride, const uint8_t *cur,
                ptrdiff_t cur_stride, ptrdiff_t rows, ptrdiff_t cols, const int64_t *offsets,
                int n, int levels, int64_t *counts, uint32_t *scratch, ptrdiff_t budget)
{
    const int shift = 8 - __builtin_ctz(levels);
    const uint64_t level_bits = 0x0101010101010101u * (uint8_t)(0xff << shift),
                   low7 = 0x7f7f7f7f7f7f7f7fu;
    ptrdiff_t changed = 0, differs = 0;
    /* Find the pixels whose level changed, a row that differs 8 at a time. */
    for (ptrdiff_t y = 0; y < rows; y++) {
        const uint8_t *a = prev + y * prev_stride, *b = cur + y * cur_stride;
        for (ptrdiff_t x = memcmp(a, b, cols) ? 0 : cols; x < cols; x += 8) {
            uint64_t u, v;
            if (x + 8 <= cols) {
                memcpy(&u, a + x, 8);
                memcpy(&v, b + x, 8);
            } else { /* the row's short last word, zero-padded */
                uint64_t w[2] = {0, 0};
                memcpy(w, a + x, cols - x);
                memcpy(w + 1, b + x, cols - x);
                u = w[0], v = w[1];
            }
            differs |= u != v;
            /* The top bit of each byte that changed level. */
            uint64_t d = (u ^ v) & level_bits;
            for (d = (((d & low7) + low7) | d) & ~low7; d; d &= d - 1, changed++) {
                if (changed == budget)
                    return -1;
                const int bit = __builtin_ctzll(d);
                scratch[2 * changed] = y;
                scratch[2 * changed + 1] = x + (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
                                                ? bit / 8 : 7 - bit / 8);
            }
        }
        if (y >= 7 && changed * rows > budget * (y + 1))
            return -1;
    }
    /* Move each pair holding a changed pixel from its old levels to its new
       ones: the pair it starts, then the pair it ends unless that pair's
       first pixel changed too and so moved it already. */
    for (int k = 0; k < n; k++) {
        const ptrdiff_t dx = offsets[2 * k], dy = offsets[2 * k + 1];
        const ptrdiff_t prev_partner = dy * prev_stride + dx, cur_partner = dy * cur_stride + dx;
        int64_t *c = counts + (ptrdiff_t)k * levels * levels;
        for (ptrdiff_t i = 0; i < changed; i++) {
            const ptrdiff_t y = scratch[2 * i], x = scratch[2 * i + 1];
            const uint8_t *a = prev + y * prev_stride + x, *b = cur + y * cur_stride + x;
            const int qa = *a >> shift, qb = *b >> shift;
            if ((size_t)(y + dy) < (size_t)rows && (size_t)(x + dx) < (size_t)cols) {
                c[qa * levels + (a[prev_partner] >> shift)]--;
                c[qb * levels + (b[cur_partner] >> shift)]++;
            }
            if ((size_t)(y - dy) < (size_t)rows && (size_t)(x - dx) < (size_t)cols) {
                const int first = a[-prev_partner] >> shift;
                if (first == b[-cur_partner] >> shift) {
                    c[first * levels + qa]--;
                    c[first * levels + qb]++;
                }
            }
        }
    }
    return differs;
}
