/**
 * @file
 * Host CPU-time sampler: a SIGPROF interval timer records the
 * interrupted program counter of whichever thread is on CPU, and the
 * return addresses of its nearest callers. Frames inside this
 * executable are kept as offsets from its load base, so
 * perfbench/run.py can name them from the symbol table (local
 * functions included) and charge each sample to a src/ module;
 * frames in shared libraries are named by library.
 */

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harvest_bench.hh"

namespace perfbench {

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 16;
/** Frames kept per sample: the handler, the signal trampoline, the
 *  interrupted function and its nearest callers. */
constexpr int kDepth = 10;

struct Sample {
    /** Set last by the handler: a handler still running on another
     *  thread when sampling stops leaves its sample unread. */
    std::atomic<bool> done;
    std::uintptr_t pc;
    int depth;
    void *frames[kDepth];
};

/** Allocated by start(), so runs that never sample never touch it. */
std::unique_ptr<Sample[]> gSamples;
std::atomic<std::size_t> gCount{0};

void
onProf(int, siginfo_t *, void *ctx)
{
    const std::size_t i = gCount.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSamples)
        return;
    Sample &s = gSamples[i];
    const auto *uc = static_cast<const ucontext_t *>(ctx);
#if defined(__x86_64__)
    s.pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    s.pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    s.pc = 0;
    (void)uc;
#endif
    s.depth = backtrace(s.frames, kDepth);
    s.done.store(true, std::memory_order_release);
}

/** "exe:<hex offset>" inside this executable, else "lib:<name>". */
std::string
frameName(std::uintptr_t addr, const Dl_info &self)
{
    Dl_info info{};
    if (addr == 0 || dladdr(reinterpret_cast<void *>(addr), &info) == 0)
        return "lib:unknown";
    char buf[40];
    if (info.dli_fbase == self.dli_fbase) {
        std::snprintf(buf, sizeof(buf), "exe:%llx",
                      static_cast<unsigned long long>(
                          addr - reinterpret_cast<std::uintptr_t>(
                                     self.dli_fbase)));
        return buf;
    }
    const char *slash = std::strrchr(info.dli_fname, '/');
    return std::string("lib:") + (slash ? slash + 1 : info.dli_fname);
}

} // namespace

void
HostSampler::start()
{
    // The first backtrace() loads the unwinder; never in the handler.
    void *warm[kDepth];
    backtrace(warm, kDepth);
    gSamples = std::make_unique<Sample[]>(kMaxSamples);
    gCount.store(0, std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    const itimerval every{{0, kIntervalUs}, {0, kIntervalUs}};
    setitimer(ITIMER_PROF, &every, nullptr);
}

HostSamples
HostSampler::stop()
{
    const itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);

    Dl_info self{};
    dladdr(reinterpret_cast<void *>(&onProf), &self);

    HostSamples out;
    const std::size_t n =
        std::min(gCount.load(std::memory_order_relaxed), kMaxSamples);
    for (std::size_t i = 0; i < n; ++i) {
        const Sample &s = gSamples[i];
        if (!s.done.load(std::memory_order_acquire))
            continue;
        // The interrupted PC, then the return addresses above it.
        std::vector<std::string> stack{frameName(s.pc, self)};
        int at = 0;
        while (at < s.depth &&
               reinterpret_cast<std::uintptr_t>(s.frames[at]) != s.pc)
            ++at;
        for (int f = at + 1; f < s.depth; ++f)
            stack.push_back(frameName(
                reinterpret_cast<std::uintptr_t>(s.frames[f]), self));
        ++out[stack];
    }
    return out;
}

} // namespace perfbench
