// Shared fixtures/helpers for the CRIMES test suite.
#pragma once

#include "core/crimes.h"
#include "guestos/guest_kernel.h"
#include "hypervisor/hypervisor.h"

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

namespace crimes::testing {

// A small booted guest on its own hypervisor, sized for fast tests.
struct TestGuest {
  explicit TestGuest(GuestConfig config = small_config()) : kernel_holder() {
    vm = &hypervisor.create_domain("test-vm", config.page_count);
    kernel_holder = std::make_unique<GuestKernel>(*vm, config);
    kernel = kernel_holder.get();
    kernel->boot();
  }

  [[nodiscard]] static GuestConfig small_config() {
    GuestConfig config;
    config.page_count = 2048;  // 8 MiB
    config.task_slab_pages = 4;
    config.canary_table_pages = 8;
    return config;
  }

  Hypervisor hypervisor{1 << 20};  // 4 GiB machine
  Vm* vm = nullptr;
  std::unique_ptr<GuestKernel> kernel_holder;
  GuestKernel* kernel = nullptr;
};

// A fresh directory under the system temp dir, removed with everything in
// it when the object goes out of scope.
struct TempDir {
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("crimes-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::filesystem::path path;
  static inline int counter = 0;
};

}  // namespace crimes::testing
