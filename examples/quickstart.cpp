// Quickstart: the VMMC model in one file.
//
// Two PCs on a Myrinet switch. The receiver exports part of its address
// space as a receive buffer and registers a notification handler; the
// sender imports that buffer — getting a proxy address — and sends into
// it. Data lands directly in the receiver's memory (no receive call, no
// receiver CPU involvement); the notification invokes a user-level
// handler (§2).
//
// Build & run:   ./build/examples/quickstart
//
// Set VMMC_TRACE=out.json to record a Chrome/Perfetto trace of the run
// (load at https://ui.perfetto.dev or chrome://tracing).
#include <cstdio>
#include <cstring>
#include <string>

#include "vmmc/obs/trace.h"
#include "vmmc/vmmc/cluster.h"

using namespace vmmc;
using namespace vmmc::vmmc_core;

namespace {

sim::Process Receiver(sim::Simulator& sim, Endpoint& ep, mem::VirtAddr& buffer_out) {
  // Export 64 KB of our address space under the name "inbox", asking for a
  // notification when a message arrives.
  auto buffer = ep.AllocBuffer(64 * 1024);
  if (!buffer.ok()) co_return;
  buffer_out = buffer.value();

  ExportOptions options;
  options.name = "inbox";
  options.notify = true;
  auto id = co_await ep.ExportBuffer(buffer.value(), 64 * 1024, std::move(options));
  if (!id.ok()) {
    std::printf("export failed: %s\n", id.status().ToString().c_str());
    co_return;
  }

  ep.SetNotificationHandler(id.value(), [&, buffer](const UserNotification& n)
                                            -> sim::Process {
    std::string text(n.msg_len, '\0');
    (void)ep.ReadBuffer(buffer.value(),
                        {reinterpret_cast<std::uint8_t*>(text.data()), text.size()});
    std::printf("[%8.1f us] receiver: notification, %u bytes landed: \"%s\"\n",
                sim::ToMicroseconds(sim.now()), n.msg_len, text.c_str());
    co_return;
  });
  std::printf("[%8.1f us] receiver: exported 64 KB as \"inbox\"\n",
              sim::ToMicroseconds(sim.now()));
}

sim::Process Sender(sim::Simulator& sim, Endpoint& ep) {
  // Import the receiver's buffer; the returned proxy address is our only
  // handle on its memory — and the only place we are allowed to write.
  ImportOptions wait;
  wait.wait = true;
  auto imported = co_await ep.ImportBuffer(1, "inbox", wait);
  if (!imported.ok()) {
    std::printf("import failed: %s\n", imported.status().ToString().c_str());
    co_return;
  }
  std::printf("[%8.1f us] sender: imported \"inbox\" (%u bytes at proxy 0x%llx)\n",
              sim::ToMicroseconds(sim.now()), imported.value().len,
              static_cast<unsigned long long>(imported.value().proxy_base));

  const std::string message = "hello from virtual memory-mapped communication";
  auto src = ep.AllocBuffer(4096);
  if (!src.ok()) co_return;
  (void)ep.WriteBuffer(src.value(),
                       {reinterpret_cast<const std::uint8_t*>(message.data()),
                        message.size()});

  SendOptions options;
  options.notify = true;
  Status sent = co_await ep.SendMsg(src.value(), imported.value().proxy_base,
                                    static_cast<std::uint32_t>(message.size()),
                                    options);
  std::printf("[%8.1f us] sender: SendMsg returned %s\n",
              sim::ToMicroseconds(sim.now()), sent.ToString().c_str());

  // A send to memory we never imported is rejected by the outgoing page
  // table — protection without any kernel involvement on the data path.
  // (Long sends report the rejection synchronously through the completion
  // word; short sends are fire-and-forget and surface it via counters.)
  Status denied = co_await ep.SendMsg(src.value(), MakeProxyAddr(1000, 0), 4096);
  std::printf("[%8.1f us] sender: rogue send rejected: %s\n",
              sim::ToMicroseconds(sim.now()), denied.ToString().c_str());
}

}  // namespace

int main() {
  sim::Simulator sim;
  obs::TraceEnvGuard trace(sim.tracer());  // VMMC_TRACE=file.json to record
  Params params;  // the paper's calibrated platform
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);

  Status booted = cluster.Boot();
  if (!booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  std::printf("[%8.1f us] cluster booted: network mapped and verified, VMMC "
              "LCPs loaded\n",
              sim::ToMicroseconds(sim.now()));

  auto receiver = cluster.OpenEndpoint(1, "receiver");
  auto sender = cluster.OpenEndpoint(0, "sender");
  if (!receiver.ok() || !sender.ok()) return 1;

  mem::VirtAddr inbox = 0;
  sim.Spawn(Receiver(sim, *receiver.value(), inbox));
  sim.Spawn(Sender(sim, *sender.value()));
  sim.Run();

  const auto& stats = cluster.node(0).lcp->metrics();
  std::printf("\nsender NIC: %llu sends, %llu bytes, %llu protection "
              "violations\n",
              static_cast<unsigned long long>(stats.sends.value()),
              static_cast<unsigned long long>(stats.bytes_sent.value()),
              static_cast<unsigned long long>(
                  stats.protection_violations.value()));
  std::printf("receiver host CPU copies on the data path: %llu (zero-copy)\n",
              static_cast<unsigned long long>(
                  cluster.node(1).machine->cpu().bcopy_calls()));
  return 0;
}
