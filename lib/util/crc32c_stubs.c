/* CRC32C (Castagnoli) with the SSE4.2 [crc32] instruction.

   [rae_crc32c_hw] advances a raw CRC state (the caller applies the
   initial and final inversions) over [len] bytes of [buf] from [pos].
   It is declared [@@noalloc] on the OCaml side: it neither allocates,
   raises nor releases the runtime lock, so [buf] cannot move while it
   runs.  Checksum.crc32c has already checked [pos]/[len] against [buf];
   this code trusts that check.

   One [crc32] instruction folds eight bytes but has a latency of three
   cycles, so a single chain runs at a third of the instruction's
   throughput.  Long buffers therefore run three chains at once, over
   three equal chunks A, B and C of [n] bytes each: the chains are
   independent, so their latencies overlap.  The raw state is linear in
   its input, so the chunks combine as

     crc(A || B) = shift(crc(A), |B|) ^ crc0(B)

   where crc0 starts from a zero state and shift(x, m) is the state [x]
   advanced over [m] zero bytes: [x] times x^(8m) modulo the polynomial.
   For a fixed [m] that is linear in the 32 bits of [x], so it is four
   lookups in a 4 x 256 table, one per byte of [x].  Two chunk lengths
   are used, 3 x 2048 and 3 x 256 bytes; the single chain finishes the
   tail, and it alone handles every buffer under 768 bytes.

   The shift tables are built once, inside [rae_crc32c_hw_available],
   which Checksum calls while its module initializes: before any domain
   other than the main one can run.  After that they are only read, so
   domains share them without synchronization.

   The instruction path is compiled for x86-64 only, under a function
   target attribute, so the rest of the build needs no -msse4.2.  Which
   path runs is decided once, from [rae_crc32c_hw_available], when the
   OCaml module initializes. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAE_CRC32C_X86 1
#include <nmmintrin.h>

#define LONG_CHUNK 2048
#define SHORT_CHUNK 256

/* shift_long[k][v] is shift(v << 8k, LONG_CHUNK); likewise shift_short. */
static uint32_t shift_long[4][256];
static uint32_t shift_short[4][256];

/* The raw state [x] advanced over [n] zero bytes ([n] a multiple of 8),
   by the instruction itself. */
__attribute__((target("sse4.2")))
static uint32_t zeros(uint32_t x, size_t n)
{
  uint64_t c = x;
  for (size_t i = 0; i < n; i += 8)
    c = _mm_crc32_u64(c, 0);
  return (uint32_t)c;
}

/* Each table entry is the xor of the images of its bits, so only the 32
   single-bit states are advanced over the zeros. */
__attribute__((target("sse4.2")))
static void build_shift_table(uint32_t table[4][256], size_t n)
{
  uint32_t bit_image[32];
  for (int i = 0; i < 32; i++)
    bit_image[i] = zeros(1u << i, n);
  for (int k = 0; k < 4; k++)
    for (int v = 0; v < 256; v++) {
      uint32_t x = 0;
      for (int j = 0; j < 8; j++)
        if (v & (1 << j)) x ^= bit_image[(8 * k) + j];
      table[k][v] = x;
    }
}

static inline uint64_t shift(const uint32_t table[4][256], uint64_t x)
{
  return table[0][x & 0xFF] ^ table[1][(x >> 8) & 0xFF] ^ table[2][(x >> 16) & 0xFF]
         ^ table[3][(x >> 24) & 0xFF];
}

static inline uint64_t load64(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, 8);
  return w;
}

/* Three chains over the next 3 x [n] bytes, combined into [c]. */
__attribute__((target("sse4.2")))
static inline uint64_t crc32c_3way(uint64_t c, const unsigned char *p, size_t n,
                                   const uint32_t table[4][256])
{
  uint64_t c1 = 0, c2 = 0;
  for (size_t i = 0; i < n; i += 8) {
    c = _mm_crc32_u64(c, load64(p + i));
    c1 = _mm_crc32_u64(c1, load64(p + n + i));
    c2 = _mm_crc32_u64(c2, load64(p + (2 * n) + i));
  }
  c = shift(table, c) ^ c1;
  return shift(table, c) ^ c2;
}

__attribute__((target("sse4.2")))
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 3 * LONG_CHUNK) {
    c = crc32c_3way(c, p, LONG_CHUNK, shift_long);
    p += 3 * LONG_CHUNK;
    len -= 3 * LONG_CHUNK;
  }
  while (len >= 3 * SHORT_CHUNK) {
    c = crc32c_3way(c, p, SHORT_CHUNK, shift_short);
    p += 3 * SHORT_CHUNK;
    len -= 3 * SHORT_CHUNK;
  }
  while (len >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    len -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (len > 0) {
    c32 = _mm_crc32_u8(c32, *p);
    p++;
    len--;
  }
  return c32;
}
#endif

value rae_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef RAE_CRC32C_X86
  if (!__builtin_cpu_supports("sse4.2")) return Val_false;
  build_shift_table(shift_long, LONG_CHUNK);
  build_shift_table(shift_short, SHORT_CHUNK);
  return Val_true;
#else
  return Val_false;
#endif
}

intnat rae_crc32c_hw(intnat crc, value buf, intnat pos, intnat len)
{
#ifdef RAE_CRC32C_X86
  return (intnat)crc32c_sse42((uint32_t)crc, Bytes_val(buf) + pos, (size_t)len);
#else
  /* Unreachable: the OCaml side calls this only when the CPU has the
     instruction. */
  (void)buf;
  (void)pos;
  (void)len;
  return crc;
#endif
}

value rae_crc32c_hw_byte(value crc, value buf, value pos, value len)
{
  return Val_long(rae_crc32c_hw(Long_val(crc), buf, Long_val(pos), Long_val(len)));
}
