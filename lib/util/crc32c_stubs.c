/* CRC32C (Castagnoli) with the SSE4.2 [crc32] instruction.

   [rae_crc32c_hw] advances a raw CRC state (the caller applies the
   initial and final inversions) over [len] bytes of [buf] from [pos]:
   eight bytes per [_mm_crc32_u64], then the tail byte by byte.  It is
   declared [@@noalloc] on the OCaml side: it neither allocates, raises
   nor releases the runtime lock, so [buf] cannot move while it runs.
   Checksum.crc32c has already checked [pos]/[len] against [buf]; this
   code trusts that check.

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

__attribute__((target("sse4.2")))
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
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
  return Val_bool(__builtin_cpu_supports("sse4.2"));
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
