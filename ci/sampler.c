/* A sampling profiler for boxes without `perf`, loaded with LD_PRELOAD
 * (ci/profile.sh builds and drives it). It asks for a SIGPROF per ms of
 * CPU time (the kernel sends one per tick: every 4 ms at HZ=250) and
 * the handler keeps the call stack it interrupted; at exit the stacks
 * (one line of return addresses each, innermost first) and
 * /proc/self/maps are written to $SAMPLER_OUT for addr2line. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define DEPTH 40
#define MAX_SAMPLES 120000 /* later samples are dropped */

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile int taken;

static void on_prof(int sig) {
    (void)sig;
    if (taken < MAX_SAMPLES) {
        depths[taken] = backtrace(stacks[taken], DEPTH);
        taken++;
    }
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    /* The first call loads the unwinder, which allocates: not from the handler. */
    backtrace(warm, 4);
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "samples.txt", "w");
    if (!out)
        return;
    for (int i = 0; i < taken; i++) {
        /* Frames 0 and 1 are this handler and the signal trampoline. */
        for (int f = 2; f < depths[i]; f++)
            fprintf(out, "%lx ", (unsigned long)stacks[i][f]);
        fputc('\n', out);
    }
    fputs("MAPS\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(out);
}
