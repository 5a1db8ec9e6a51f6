// Micro-benchmarks (google-benchmark, REAL wall-clock time):
//  * canary validation rate (the paper claims ~90,000 canaries/ms),
//  * the two dirty-bitmap scan algorithms,
//  * memcpy vs socket+cipher checkpoint transports,
//  * VMI process-list walks (warm translation cache).
#include "checkpoint/transport.h"
#include "common/rng.h"
#include "guestos/guest_kernel.h"
#include "hypervisor/hypervisor.h"
#include "vmi/vmi_session.h"

#include <benchmark/benchmark.h>

namespace crimes {
namespace {

// Canary validation the way the CanaryScanModule does it once it has the
// table in hand: read 8 bytes through the (warm) mapping and compare.
void BM_CanaryValidationRate(benchmark::State& state) {
  Hypervisor hypervisor(1u << 19);
  GuestConfig gc;
  gc.page_count = 32768;
  gc.canary_table_pages = 512;
  Vm& vm = hypervisor.create_domain("canaries", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Vaddr> canaries;
  canaries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Vaddr obj = kernel.heap().malloc(24);
    canaries.push_back(obj + 24);
  }
  const std::uint64_t key = kernel.heap().canary_key();

  std::size_t corrupt = 0;
  for (auto _ : state) {
    for (const Vaddr canary : canaries) {
      const auto pa = kernel.page_table().translate(canary);
      std::uint64_t value;
      std::vector<std::byte> buf(8);
      vm.read_phys(*pa, buf);
      std::memcpy(&value, buf.data(), 8);
      if (value != (key ^ canary.value())) ++corrupt;
    }
    benchmark::DoNotOptimize(corrupt);
  }
  // Reported per second; divide by 1000 to compare with the paper's
  // ~90,000 canaries/ms claim.
  state.counters["canaries/s"] = benchmark::Counter(
      static_cast<double>(count) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CanaryValidationRate)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BitmapScan(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  const bool chunked = state.range(1) != 0;
  DirtyBitmap bitmap(pages);
  Rng rng(42);
  for (std::size_t i = 0; i < pages / 100; ++i) {
    bitmap.mark(Pfn{rng.next_below(pages)});
  }
  for (auto _ : state) {
    if (chunked) {
      benchmark::DoNotOptimize(bitmap.scan_chunked());
    } else {
      benchmark::DoNotOptimize(bitmap.scan_naive());
    }
  }
  state.SetLabel(chunked ? "chunked" : "bit-by-bit");
}
BENCHMARK(BM_BitmapScan)
    ->Args({262144, 0})
    ->Args({262144, 1})
    ->Args({4194304, 0})
    ->Args({4194304, 1});

void BM_Transport(benchmark::State& state) {
  const bool use_memcpy = state.range(0) != 0;
  Hypervisor hypervisor(1u << 18);
  Vm& primary = hypervisor.create_domain("p", 8192);
  Vm& backup = hypervisor.create_domain("b", 8192);
  backup.pause();
  std::vector<Pfn> dirty;
  Rng rng(7);
  for (std::size_t i = 0; i < 2000; ++i) dirty.push_back(Pfn{i * 4});
  for (const Pfn pfn : dirty) {
    primary.page(pfn).data[0] = static_cast<std::byte>(rng.next_u64());
  }

  const CostModel& costs = CostModel::defaults();
  MemcpyTransport mem(costs);
  SocketTransport sock(costs.copy_socket_per_page);
  Transport& transport =
      use_memcpy ? static_cast<Transport&>(mem) : sock;
  ForeignMapping src(primary), dst(backup);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.copy(src, dst, dirty));
  }
  state.SetLabel(transport.name());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dirty.size()) *
                          static_cast<std::int64_t>(kPageSize));
}
BENCHMARK(BM_Transport)->Arg(1)->Arg(0);

void BM_VmiProcessList(benchmark::State& state) {
  Hypervisor hypervisor(1u << 18);
  GuestConfig gc;
  gc.page_count = 8192;
  Vm& vm = hypervisor.create_domain("guest", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();
  for (int i = 0; i < 48; ++i) {
    (void)kernel.spawn_process("p" + std::to_string(i), 1);
  }
  VmiSession vmi(hypervisor, vm.id(), kernel.symbols(), kernel.flavor(),
                 CostModel::defaults());
  vmi.init();
  vmi.preprocess();
  (void)vmi.process_list();  // warm the translation cache

  for (auto _ : state) {
    benchmark::DoNotOptimize(vmi.process_list());
  }
}
BENCHMARK(BM_VmiProcessList);

}  // namespace
}  // namespace crimes

BENCHMARK_MAIN();
