/* CPU affinity of the calling thread, for Cpu. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, as a bit mask of the first 62. */
value perfbench_allowed_cpus(value unit)
{
  cpu_set_t set;
  intnat mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int i = 0; i < 62; i++)
      if (CPU_ISSET(i, &set)) mask |= (intnat)1 << i;
  return Val_long(mask);
}

/* Restricts the calling thread to the CPUs of [mask]; false if the
   kernel refused. */
value perfbench_set_cpus(value mask)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < 62; i++)
    if (Long_val(mask) & ((intnat)1 << i)) CPU_SET(i, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
