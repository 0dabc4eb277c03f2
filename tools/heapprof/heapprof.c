// LD_PRELOAD heap-profiling shim: interposes malloc, calloc, realloc,
// posix_memalign and free, records the call stack of every allocation call
// and keeps, per distinct stack (a "site"), the calls made and the bytes
// live. Whenever the process's live bytes reach a new high it snapshots
// each site's live bytes (cheaply: only the sites touched since the last
// high are copied), so the dump holds the composition of the heap at the
// process's peak. Its window is the whole process, from the first
// allocation to exit. At exit everything goes to $HEAPPROF_OUT (default
// ./heapprof.out) behind a copy of /proc/self/maps, which symbolise.py
// needs to turn addresses back into file offsets.
//
// Sizes are the bytes asked for, not what the allocator rounds them up to.
// A realloc counts as one call at its stack: its old block stops being live
// and its new size starts. The bookkeeping lives in mmap'd tables and takes
// one lock; a call made from inside the hook (the unwinder's own set-up)
// passes through uncounted. x86-64 Linux with glibc only. Build and use
// through tools/heap_profile.sh.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 24            // frames kept per stack (the hook's own is dropped)
#define SITE_BITS 16        // distinct stacks; more share the overflow site 0
#define LIVE_BITS 22        // live blocks, open addressing at most half full
#define SITES (1u << SITE_BITS)
#define LIVE_SLOTS (1u << LIVE_BITS)

struct site {
  uint64_t hash;
  uint64_t calls;
  uint64_t bytes;          // asked for, over the whole process
  uint64_t live;           // now
  uint64_t at_peak;        // at the last high of the process's live bytes
  uint32_t touched;        // epoch of the last high it changed after
  uint32_t depth;
  void *pcs[DEPTH];
};

struct block {
  uintptr_t ptr;           // 0: empty slot
  uint64_t size : 48;
  uint64_t site : 16;
};

static struct site *sites;
static uint32_t *site_index;  // hash-addressed, SITES * 2 slots of site ids (0: empty)
static struct block *blocks;
static uint32_t n_sites = 1;  // site 0: overflow and stacks that could not be taken
static uint32_t *dirty;       // sites changed since the last high
static uint32_t n_dirty, epoch = 1;
static uint64_t live, peak, calls_total, untracked, n_blocks;
static int lock;
static __thread int in_hook __attribute__((tls_model("initial-exec")));
static int ready;

static void *map(size_t bytes) {
  void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                 -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static void acquire(void) {
  while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
  }
}

static void release(void) { __atomic_store_n(&lock, 0, __ATOMIC_RELEASE); }

static uint64_t mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

static uint32_t site_of(void **pcs, int depth) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < depth; i++) h = mix(h ^ (uint64_t)(uintptr_t)pcs[i]);
  h |= 1;
  for (uint32_t slot = (uint32_t)h & (2 * SITES - 1);; slot = (slot + 1) & (2 * SITES - 1)) {
    uint32_t id = site_index[slot];
    if (id == 0) {
      if (n_sites == SITES) return 0;
      id = n_sites++;
      site_index[slot] = id;
      sites[id].hash = h;
      sites[id].depth = (uint32_t)depth;
      memcpy(sites[id].pcs, pcs, (size_t)depth * sizeof(void *));
      return id;
    }
    if (sites[id].hash == h && sites[id].depth == (uint32_t)depth &&
        memcmp(sites[id].pcs, pcs, (size_t)depth * sizeof(void *)) == 0)
      return id;
  }
}

static void touch(uint32_t id) {
  if (sites[id].touched != epoch) {
    sites[id].touched = epoch;
    dirty[n_dirty++] = id;
  }
}

static void new_high(void) {
  peak = live;
  for (uint32_t i = 0; i < n_dirty; i++) sites[dirty[i]].at_peak = sites[dirty[i]].live;
  n_dirty = 0;
  epoch++;
}

static uint32_t slot_of(uintptr_t p) { return (uint32_t)mix(p) & (LIVE_SLOTS - 1); }

static void insert(uintptr_t p, size_t size, uint32_t id) {
  uint32_t s = slot_of(p);
  while (blocks[s].ptr) s = (s + 1) & (LIVE_SLOTS - 1);
  blocks[s].ptr = p;
  blocks[s].size = size;
  blocks[s].site = id;
}

// Removes `p` (backward-shift deletion keeps every probe chain whole) and
// returns whether it was there; its size and site go to the out-params.
static int take(uintptr_t p, uint64_t *size, uint32_t *id) {
  uint32_t s = slot_of(p);
  while (blocks[s].ptr != p) {
    if (!blocks[s].ptr) return 0;
    s = (s + 1) & (LIVE_SLOTS - 1);
  }
  *size = blocks[s].size;
  *id = blocks[s].site;
  for (uint32_t hole = s, next = (s + 1) & (LIVE_SLOTS - 1);; next = (next + 1) & (LIVE_SLOTS - 1)) {
    if (!blocks[next].ptr) {
      blocks[hole].ptr = 0;
      return 1;
    }
    uint32_t home = slot_of(blocks[next].ptr);
    // `next` may fill the hole unless its home lies cyclically in (hole, next].
    if (((next - home) & (LIVE_SLOTS - 1)) >= ((next - hole) & (LIVE_SLOTS - 1))) {
      blocks[hole] = blocks[next];
      hole = next;
    }
  }
}

static void forget(void *old) {
  uint64_t size;
  uint32_t id;
  if (old && take((uintptr_t)old, &size, &id)) {
    n_blocks--;
    live -= size;
    sites[id].live -= size;
    touch(id);
  }
}

// Books a call that returned `p` for `size` bytes (and released `old`).
static void book(void *p, size_t size, void *old) {
  if (!ready || in_hook) return;
  in_hook = 1;
  void *pcs[DEPTH + 1];
  int depth = backtrace(pcs, DEPTH + 1) - 1;
  acquire();
  forget(old);
  uint32_t id = depth > 0 ? site_of(pcs + 1, depth) : 0;
  calls_total++;
  sites[id].calls++;
  sites[id].bytes += size;
  if (p && n_blocks < LIVE_SLOTS / 2) {
    n_blocks++;
    insert((uintptr_t)p, size, id);
    live += size;
    sites[id].live += size;
    touch(id);
    if (live > peak) new_high();
  } else if (p) {
    untracked++;  // the block table is full: counted, never live
  }
  release();
  in_hook = 0;
}

void *malloc(size_t size) {
  void *p = __libc_malloc(size);
  book(p, size, NULL);
  return p;
}

void *calloc(size_t n, size_t size) {
  void *p = __libc_calloc(n, size);
  book(p, n * size, NULL);
  return p;
}

static void unbook(void *p) {
  if (p && ready && !in_hook) {
    acquire();
    forget(p);
    release();
  }
}

void *realloc(void *old, size_t size) {
  void *p = __libc_realloc(old, size);
  if (!old || p) {
    book(p, size, old);
  } else if (size == 0) {
    unbook(old);  // glibc frees the block and returns NULL
  }
  return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
  void *p = __libc_memalign(align, size);
  if (!p) return ENOMEM;
  *out = p;
  book(p, size, NULL);
  return 0;
}

void free(void *p) {
  unbook(p);
  __libc_free(p);
}

static void dump(void) {
  in_hook = 1;
  const char *path = getenv("HEAPPROF_OUT");
  FILE *out = fopen(path ? path : "heapprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
  fprintf(out, "SITES calls=%llu peak=%llu untracked=%llu\n", (unsigned long long)calls_total,
          (unsigned long long)peak, (unsigned long long)untracked);
  for (uint32_t id = 0; id < n_sites; id++) {
    struct site *s = &sites[id];
    if (!s->calls && !s->at_peak) continue;
    fprintf(out, "%llu %llu %llu", (unsigned long long)s->calls, (unsigned long long)s->bytes,
            (unsigned long long)s->at_peak);
    for (uint32_t i = 0; i < s->depth; i++) fprintf(out, " %lx", (unsigned long)s->pcs[i]);
    fputc('\n', out);
  }
  fclose(maps);
  fclose(out);
}

__attribute__((constructor)) static void start(void) {
  sites = map(SITES * sizeof(struct site));
  site_index = map(2 * SITES * sizeof(uint32_t));
  dirty = map(SITES * sizeof(uint32_t));
  blocks = map(LIVE_SLOTS * sizeof(struct block));
  if (!sites || !site_index || !dirty || !blocks) return;
  // The unwinder allocates on first use: let it, before counting starts.
  void *warm[4];
  in_hook = 1;
  backtrace(warm, 4);
  in_hook = 0;
  ready = 1;
  atexit(dump);
}
