/* CPU time of a whole process, for cpu.ml. */

#include <math.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* Seconds of CPU used by every thread of [pid], those that have ended
   included; pid 0 is this process. NaN when the process is gone. */
value ledger_cpu_s(value pid)
{
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  struct timespec ts;
  if (Int_val(pid) != 0 && clock_getcpuclockid(Int_val(pid), &clock) != 0)
    return caml_copy_double(NAN);
  if (clock_gettime(clock, &ts) != 0)
    return caml_copy_double(NAN);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
