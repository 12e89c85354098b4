// The vRPC transport over VMMC (§5.4): the network layer reimplemented
// directly on top of the new interface.
//
// Wire protocol: the server exports one request slot per client; a client
// exports a reply slot. A message is written as [len][client_node][bytes]
// followed by a 4-byte commit word (a sequence number) at the end of the
// slot — delivery is in order, so a changed commit word means the message
// body is complete. The server polls commit words; the client spins on its
// reply slot.
//
// In compatibility mode the server performs ONE COPY of every incoming
// call out of the exported buffer before decoding ("The one copy on the
// receive side is necessary, if compatibility with SunRPC is to be
// maintained", §5.4). Fast mode decodes in place and uses thinner layers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vmmc/host/spin_wait.h"
#include "vmmc/vmmc/cluster.h"
#include "vmmc/vrpc/vrpc.h"

namespace vmmc::vrpc {

class VmmcServerTransport : public ServerTransport {
 public:
  // Exports `max_clients` request slots named "<service>-req-<k>".
  static sim::Task<Result<std::unique_ptr<VmmcServerTransport>>> Create(
      vmmc_core::Cluster& cluster, int node, std::string service,
      int max_clients, bool compat = true);

  sim::Process Serve(RawHandler handler) override;

  std::uint64_t copies_performed() const { return copies_; }

 private:
  VmmcServerTransport(vmmc_core::Cluster& cluster, int node, std::string service,
                      bool compat)
      : cluster_(cluster),
        node_(node),
        service_(std::move(service)),
        compat_(compat),
        idle_wait_(cluster.simulator(), cluster.params().vrpc.poll) {}

  struct Slot {
    mem::VirtAddr va = 0;
    std::uint32_t last_seq = 0;
    bool reply_connected = false;
    vmmc_core::ProxyAddr reply_proxy = 0;
  };

  vmmc_core::Cluster& cluster_;
  int node_;
  std::string service_;
  bool compat_;
  std::unique_ptr<vmmc_core::Endpoint> ep_;
  std::vector<Slot> slots_;
  mem::VirtAddr staging_ = 0;
  std::uint64_t copies_ = 0;
  host::SpinWait idle_wait_;  // watches every slot's commit word
};

class VmmcClientTransport : public ClientTransport {
 public:
  // Connects to slot `client_id` of the server's service. In compat mode
  // the client also copies each reply out of its exported slot (§5.4:
  // "one copy on every message receive ... two copies in a roundtrip").
  static sim::Task<Result<std::unique_ptr<VmmcClientTransport>>> Connect(
      vmmc_core::Cluster& cluster, int client_node, int server_node,
      std::string service, int client_id, bool compat = true);

  sim::Task<Result<std::vector<std::uint8_t>>> RoundTrip(
      std::vector<std::uint8_t> request) override;

 private:
  VmmcClientTransport(vmmc_core::Cluster& cluster, int node, bool compat)
      : cluster_(cluster),
        node_(node),
        compat_(compat),
        reply_wait_(cluster.simulator(), cluster.params().vrpc.poll) {}

  vmmc_core::Cluster& cluster_;
  int node_;
  bool compat_;
  std::unique_ptr<vmmc_core::Endpoint> ep_;
  vmmc_core::ProxyAddr request_proxy_ = 0;
  mem::VirtAddr reply_va_ = 0;
  mem::VirtAddr staging_ = 0;
  mem::VirtAddr commit_staging_ = 0;
  std::uint32_t seq_ = 0;
  host::SpinWait reply_wait_;  // watches the reply slot's commit word
};

}  // namespace vmmc::vrpc
