/* CPU sampler loaded with LD_PRELOAD: ITIMER_PROF samples of the stacks of
 * one program's threads, written out when that program exits. Linux only.
 *
 *   cc -O2 -shared -fPIC -o sigprof_sampler.so scripts/sigprof_sampler.c
 *   SIGPROF_EXE=tbb_server SIGPROF_OUT=/tmp/prof \
 *       LD_PRELOAD=$PWD/sigprof_sampler.so <command>
 *
 * Only a process whose executable (/proc/self/exe) has the base name
 * SIGPROF_EXE samples itself; every other process the command starts runs
 * as if the sampler were not there. For each millisecond of CPU time the
 * process uses (in practice one kernel tick or more), the kernel sends
 * SIGPROF to a running thread, and the handler keeps that thread's stack,
 * innermost frame first, in a fixed buffer. At exit the sampler writes
 * SIGPROF_OUT/sigprof.<pid>: a copy of /proc/self/maps, a line
 * "samples <kept> <dropped>", then one stack per line as hex addresses.
 * The first address of a stack is the interrupted instruction; the others
 * are return addresses. scripts/profile_setup.py symbolizes the file.
 *
 * The handler unwinds with backtrace(), which is called once at start so
 * that it does not load the unwinder inside a signal handler. */

#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <limits.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kIntervalMicros = 1000, kMaxSamples = 1 << 16, kMaxDepth = 48 };

static uintptr_t g_frames[kMaxSamples][kMaxDepth];
/* Written last, so a sample whose depth is 0 at exit is skipped. */
static _Atomic int g_depth[kMaxSamples];
static atomic_uint g_next;
static atomic_int g_active;
static char g_out[PATH_MAX];

static uintptr_t InterruptedPc(void* ucontext) {
#if defined(__x86_64__)
  return (uintptr_t)((ucontext_t*)ucontext)->uc_mcontext.gregs[REG_RIP];
#else
  (void)ucontext;
  return 0;
#endif
}

static void OnSigprof(int sig, siginfo_t* info, void* ucontext) {
  (void)sig;
  (void)info;
  if (!atomic_load(&g_active)) return;
  const int saved_errno = errno;
  const unsigned slot = atomic_fetch_add(&g_next, 1);
  if (slot < kMaxSamples) {
    void* stack[kMaxDepth + 8];
    const int n = backtrace(stack, kMaxDepth + 8);
    const uintptr_t pc = InterruptedPc(ucontext);
    /* Skip the handler's own frames: start at the interrupted pc. */
    int first = 0;
    while (first < n && (uintptr_t)stack[first] != pc) ++first;
    int depth = 0;
    if (first == n) {
      g_frames[slot][depth++] = pc;
    } else {
      for (int i = first; i < n && depth < kMaxDepth; ++i) {
        g_frames[slot][depth++] = (uintptr_t)stack[i];
      }
    }
    atomic_store(&g_depth[slot], depth);
  }
  errno = saved_errno;
}

static int IsSampledProgram(const char* want) {
  char exe[PATH_MAX];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return 0;
  exe[len] = '\0';
  const char* base = strrchr(exe, '/');
  return strcmp(base == NULL ? exe : base + 1, want) == 0;
}

__attribute__((constructor)) static void SamplerStart(void) {
  const char* want = getenv("SIGPROF_EXE");
  const char* out = getenv("SIGPROF_OUT");
  if (want == NULL || out == NULL || !IsSampledProgram(want)) return;
  snprintf(g_out, sizeof(g_out), "%s/sigprof.%d", out, (int)getpid());

  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  atomic_store(&g_active, 1);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalMicros;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, NULL) != 0) atomic_store(&g_active, 0);
}

__attribute__((destructor)) static void SamplerStop(void) {
  if (!atomic_load(&g_active)) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  atomic_store(&g_active, 0);

  FILE* out = fopen(g_out, "w");
  if (out == NULL) {
    fprintf(stderr, "sigprof_sampler: cannot write %s\n", g_out);
    return;
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  unsigned taken = atomic_load(&g_next);
  const unsigned kept = taken < kMaxSamples ? taken : kMaxSamples;
  fprintf(out, "samples %u %u\n", kept, taken - kept);
  for (unsigned s = 0; s < kept; ++s) {
    const int depth = atomic_load(&g_depth[s]);
    for (int i = 0; i < depth; ++i) {
      fprintf(out, i == 0 ? "%lx" : " %lx", (unsigned long)g_frames[s][i]);
    }
    if (depth > 0) fputc('\n', out);
  }
  fclose(out);
}
