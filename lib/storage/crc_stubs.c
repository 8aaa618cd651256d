/* Hardware CRC-32C for page checksums.

   On x86-64 the SSE4.2 [crc32] instruction computes CRC-32C (the
   Castagnoli polynomial) eight bytes per instruction.  The kernel is
   compiled for SSE4.2 through a function attribute rather than a global
   -msse4.2, and chosen at run time with [__builtin_cpu_supports], so the
   library still runs on x86 CPUs without SSE4.2.  Everywhere else
   [vnl_crc32c_hw_available] is false and the OCaml side never selects
   this path; the bitwise loop below only keeps [vnl_crc32c_hw] total, so
   the differential tests can call it on any host. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

static uint32_t crc32c_bitwise(uint32_t crc, const unsigned char *p, size_t len)
{
  while (len-- > 0) {
    crc ^= *p++;
    for (int k = 0; k < 8; k++)
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
  }
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define VNL_SSE42_KERNEL 1

__attribute__((target("sse4.2")))
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    len -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (len-- > 0)
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  return c32;
}

static int has_sse42(void)
{
  static int cached = -1;
  if (cached < 0) {
    __builtin_cpu_init();
    cached = __builtin_cpu_supports("sse4.2") ? 1 : 0;
  }
  return cached;
}

#else

static int has_sse42(void) { return 0; }

#endif

value vnl_crc32c_hw_available(value unit)
{
  (void)unit;
  return Val_bool(has_sse42());
}

value vnl_crc32c_hw(value buf)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(buf);
  size_t len = caml_string_length(buf);
  uint32_t crc;
#ifdef VNL_SSE42_KERNEL
  if (has_sse42())
    crc = crc32c_sse42(0xffffffffu, p, len);
  else
#endif
    crc = crc32c_bitwise(0xffffffffu, p, len);
  return Val_long((intnat)(crc ^ 0xffffffffu));
}
