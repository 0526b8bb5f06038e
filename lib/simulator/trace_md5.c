/* Incremental MD5 for Trace.digest.  Stdlib Digest hashes one contiguous
   string; the runtime's own MD5, which Digest calls, also has an
   incremental interface (caml/md5.h, under CAML_INTERNALS).  These stubs
   expose it, so a trace is hashed block by block, with the bytes of
   Digest.string over its whole text.  A context is an OCaml bytes block
   holding the runtime's struct MD5Context: it holds no pointers, so the
   GC may move it between calls. */

#define CAML_INTERNALS
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/md5.h>

value ecsim_md5_init(value unit)
{
  value ctx = caml_alloc_string(sizeof(struct MD5Context));
  caml_MD5Init((struct MD5Context *) Bytes_val(ctx));
  return ctx;
}

/* Hashes the first [len] bytes of [buf]; allocates nothing. */
value ecsim_md5_update(value ctx, value buf, value len)
{
  caml_MD5Update((struct MD5Context *) Bytes_val(ctx), Bytes_val(buf),
                 Long_val(len));
  return Val_unit;
}

value ecsim_md5_final(value ctx)
{
  unsigned char digest[16];
  value res;
  caml_MD5Final(digest, (struct MD5Context *) Bytes_val(ctx));
  res = caml_alloc_string(16);
  memcpy(Bytes_val(res), digest, 16);
  return res;
}
