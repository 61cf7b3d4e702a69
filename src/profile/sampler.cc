#include "src/profile/sampler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "src/telemetry/timeledger.h"

// Older libcs spell the SIGEV_THREAD_ID target field differently.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace psp {
namespace {

// One captured stack. Plain data only: written inside the signal handler.
struct RawSample {
  uint32_t packed_state = 0;
  uint32_t depth = 0;
  uintptr_t pcs[CpuSampler::kMaxDepth] = {};
};

}  // namespace

// Everything the signal handler touches lives here, fully initialised before
// the thread-local pointer is published and never freed while the sampler is
// alive (slots of exited threads are retired, not erased, so their samples
// stay renderable).
struct CpuSampler::ThreadSlot {
  char role[16] = {};
  const std::atomic<uint32_t>* state_word = nullptr;
  uint32_t fallback_packed = 0;

  pid_t tid = 0;
  clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  timer_t timer{};
  bool timer_armed = false;  // guarded by mu_
  bool alive = false;        // guarded by mu_

  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;

  size_t capacity = 0;
  std::unique_ptr<RawSample[]> samples;
  // Publication index: the handler fills samples[head] then bumps head, so
  // readers only ever see complete entries. Reset by Start (under mu_, with
  // every timer disarmed), written by the owning thread's handler otherwise.
  std::atomic<uint32_t> head{0};
  std::atomic<uint64_t> dropped{0};
  // Handler gate, flipped around timer arm/disarm.
  std::atomic<bool> armed{false};
};

namespace {

thread_local CpuSampler::ThreadSlot* g_tls_slot = nullptr;

// SIGPROF, delivered on the sampled thread itself (SIGEV_THREAD_ID): walk
// the frame-pointer chain from the interrupted context. Async-signal-safe:
// atomic loads/stores and bounds-checked memory reads only, errno preserved.
// The acquire on `armed` pairs with ArmSlot's release: a handler that sees
// the new capture also sees its head reset, and its sample writes are
// ordered after any Folded() reads of the previous capture's buffer.
void SigprofAction(int /*signo*/, siginfo_t* /*info*/, void* ucontext_raw) {
  CpuSampler::ThreadSlot* slot = g_tls_slot;
  if (slot == nullptr || !slot->armed.load(std::memory_order_acquire)) {
    return;
  }
  const int saved_errno = errno;
  const uint32_t index = slot->head.load(std::memory_order_relaxed);
  if (index >= slot->capacity) {
    slot->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }

  uintptr_t pc = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
  auto* uc = static_cast<ucontext_t*>(ucontext_raw);
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
  errno = saved_errno;
  return;  // unsupported architecture: take no samples
#endif

  RawSample& sample = slot->samples[index];
  sample.packed_state =
      slot->state_word != nullptr
          ? slot->state_word->load(std::memory_order_relaxed)
          : slot->fallback_packed;
  uint32_t depth = 0;
  sample.pcs[depth++] = pc;
  // Frame layout (with -fno-omit-frame-pointer): [fp] = caller fp,
  // [fp + 8] = return address. Validate every hop against the thread's
  // stack bounds and require monotonically increasing addresses.
  uintptr_t frame = fp;
  constexpr uintptr_t kWord = sizeof(uintptr_t);
  while (depth < CpuSampler::kMaxDepth) {
    if (frame < sp || frame < slot->stack_lo ||
        frame + 2 * kWord > slot->stack_hi || (frame & (kWord - 1)) != 0) {
      break;
    }
    const uintptr_t next_fp = reinterpret_cast<const uintptr_t*>(frame)[0];
    const uintptr_t ret = reinterpret_cast<const uintptr_t*>(frame)[1];
    if (ret == 0) {
      break;
    }
    sample.pcs[depth++] = ret;
    if (next_fp <= frame) {
      break;
    }
    frame = next_fp;
  }
  sample.depth = depth;
  slot->head.store(index + 1, std::memory_order_release);
  errno = saved_errno;
}

// Off-path symbolization: nearest dynamic symbol via dladdr, demangled when
// possible, raw address otherwise. Separators are scrubbed so the output
// stays one-stack-per-line folded format.
std::string SymbolizePc(uintptr_t pc,
                        std::unordered_map<uintptr_t, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) {
    return it->second;
  }
  std::string name;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = status == 0 && demangled != nullptr ? demangled : info.dli_sname;
    free(demangled);  // NOLINT: __cxa_demangle mallocs
  } else {
    char buf[32];
    snprintf(buf, sizeof(buf), "pc_0x%zx", static_cast<size_t>(pc));
    name = buf;
  }
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') {
      c = '_';
    }
  }
  (*cache)[pc] = name;
  return name;
}

}  // namespace

CpuSampler::CpuSampler(SamplerOptions options) : options_(options) {
  if (options_.buffer_entries == 0) {
    options_.buffer_entries = 1;
  }
}

CpuSampler::~CpuSampler() { Stop(); }

void CpuSampler::RegisterCurrentThread(
    const char* role, const std::atomic<uint32_t>* state_word,
    uint32_t fallback_packed) {
  auto slot = std::make_unique<ThreadSlot>();
  snprintf(slot->role, sizeof(slot->role), "%s", role != nullptr ? role : "?");
  slot->state_word = state_word;
  slot->fallback_packed = fallback_packed;
  slot->tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (pthread_getcpuclockid(pthread_self(), &slot->cpu_clock) != 0) {
    slot->cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      slot->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      slot->stack_hi = slot->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  slot->capacity = options_.buffer_entries;
  slot->samples = std::make_unique<RawSample[]>(slot->capacity);
  slot->alive = true;

  std::lock_guard<std::mutex> lock(mu_);
  g_tls_slot = slot.get();  // fully initialised before the handler can see it
  if (running_.load(std::memory_order_acquire)) {
    ArmSlot(slot.get(), hz_);  // join the live capture
  }
  slots_.push_back(std::move(slot));
}

void CpuSampler::UnregisterCurrentThread() {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadSlot* slot = g_tls_slot;
  if (slot == nullptr) {
    return;
  }
  DisarmSlot(slot);
  slot->alive = false;  // retired: samples stay renderable
  g_tls_slot = nullptr;
}

bool CpuSampler::Start(int hz) {
  if (hz <= 0) {
    hz = 99;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_.load(std::memory_order_acquire)) {
    return false;
  }
  if (!handler_installed_) {
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &SigprofAction;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      return false;
    }
    handler_installed_ = true;
  }
  hz_ = hz;
  for (auto& slot : slots_) {
    slot->head.store(0, std::memory_order_relaxed);
    slot->dropped.store(0, std::memory_order_relaxed);
  }
  running_.store(true, std::memory_order_release);
  for (auto& slot : slots_) {
    ArmSlot(slot.get(), hz);
  }
  return true;
}

bool CpuSampler::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_.load(std::memory_order_acquire)) {
    return false;
  }
  for (auto& slot : slots_) {
    DisarmSlot(slot.get());
  }
  running_.store(false, std::memory_order_release);
  return true;
}

bool CpuSampler::ArmSlot(ThreadSlot* slot, int hz) {
  if (!slot->alive || slot->timer_armed) {
    return false;
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = slot->tid;
  if (timer_create(slot->cpu_clock, &sev, &slot->timer) != 0) {
    return false;
  }
  const long interval_ns = 1000000000L / hz;
  struct itimerspec spec;
  memset(&spec, 0, sizeof(spec));
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  // Release pairs with the handler's acquire on `armed`: the handler then
  // observes the head reset, and its writes into the (possibly re-used)
  // sample buffer are ordered after any reads of the previous capture.
  slot->armed.store(true, std::memory_order_release);
  if (timer_settime(slot->timer, 0, &spec, nullptr) != 0) {
    slot->armed.store(false, std::memory_order_relaxed);
    timer_delete(slot->timer);
    return false;
  }
  slot->timer_armed = true;
  return true;
}

void CpuSampler::DisarmSlot(ThreadSlot* slot) {
  if (!slot->timer_armed) {
    return;
  }
  slot->armed.store(false, std::memory_order_relaxed);
  timer_delete(slot->timer);
  slot->timer_armed = false;
}

std::string CpuSampler::Folded(
    const std::function<std::string(uint32_t)>& type_namer) const {
  std::unordered_map<uintptr_t, std::string> symbol_cache;
  std::map<std::string, uint64_t> stacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) {
      const uint32_t count = std::min(
          slot->head.load(std::memory_order_acquire),
          static_cast<uint32_t>(slot->capacity));
      for (uint32_t i = 0; i < count; ++i) {
        const RawSample& sample = slot->samples[i];
        std::string key = slot->role;
        key += ";state:";
        key += WorkerTimeStateName(
            WorkerTimeLedger::UnpackState(sample.packed_state));
        const uint32_t type = WorkerTimeLedger::UnpackType(sample.packed_state);
        if (type != WorkerTimeLedger::kUntyped) {
          std::string name = type_namer ? type_namer(type) : std::string();
          if (name.empty()) {
            name = "type" + std::to_string(type);
          }
          for (char& c : name) {
            if (c == ';' || c == ' ') {
              c = '_';
            }
          }
          key += ";type:";
          key += name;
        }
        // Walk order is leaf -> root; folded format wants root -> leaf.
        for (uint32_t d = sample.depth; d > 0; --d) {
          const uintptr_t raw_pc = sample.pcs[d - 1];
          // Return addresses point one past the call; bias them back so the
          // call site's symbol wins. pcs[0] is the interrupted PC: exact.
          const uintptr_t pc = d - 1 == 0 ? raw_pc : raw_pc - 1;
          key += ';';
          key += SymbolizePc(pc, &symbol_cache);
        }
        ++stacks[key];
      }
    }
  }
  std::vector<std::pair<std::string, uint64_t>> ordered(stacks.begin(),
                                                        stacks.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::string out;
  for (const auto& [key, count] : ordered) {
    out += key;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

uint64_t CpuSampler::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += std::min(slot->head.load(std::memory_order_relaxed),
                      static_cast<uint32_t>(slot->capacity));
  }
  return total;
}

uint64_t CpuSampler::dropped_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace psp
