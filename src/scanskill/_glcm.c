/* Co-occurrence and intensity counts of 8-bit pixels for scanskill.features.

   scanskill.features compiles this file with `cc -O2 -shared -fPIC` on
   first use and calls it through ctypes; numpy computes the same counts
   where it cannot.  A region is `rows` rows of `cols` pixels, one row every
   `stride` bytes.  Consecutive pixels count into four interleaved tables,
   so that in a run of equal pixels an increment need not wait on the one
   before it.  The tables are uint32: the caller keeps a region under 2^32
   pixels. */
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
