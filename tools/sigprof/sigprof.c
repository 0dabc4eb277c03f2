// LD_PRELOAD sampling shim: asks for a SIGPROF per millisecond of process CPU
// time (the kernel delivers one per scheduler tick, 4 ms on most builds) and
// stores the interrupted instruction pointer; at exit the samples go to
// $SIGPROF_OUT (default ./sigprof.out) behind a copy of /proc/self/maps,
// which symbolise.py needs to turn addresses back into file offsets.
// x86-64 Linux only. Build and use through tools/sample_profile.sh.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned n_samples;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig, (void)info;
  if (n_samples < MAX_SAMPLES)
    samples[n_samples++] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("SIGPROF_OUT");
  FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
  fputs("SAMPLES\n", out);
  for (unsigned i = 0; i < n_samples; i++) fprintf(out, "%lx\n", samples[i]);
  fclose(maps);
  fclose(out);
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
  atexit(dump);
}
