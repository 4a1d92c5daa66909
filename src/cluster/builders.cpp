#include "cluster/builders.h"

#include <cmath>
#include <stdexcept>

namespace finwork::cluster {

ServiceShape ServiceShape::exponential() {
  return {[](double mean) { return ph::PhaseType::exponential(1.0 / mean); },
          "Exp"};
}

ServiceShape ServiceShape::erlang(std::size_t stages) {
  return {[stages](double mean) { return ph::PhaseType::erlang(stages, mean); },
          std::string("E").append(std::to_string(stages))};
}

ServiceShape ServiceShape::hyperexponential(double scv) {
  return {[scv](double mean) { return ph::hyperexponential_balanced(mean, scv); },
          "H2(C2=" + std::to_string(scv) + ")"};
}

ServiceShape ServiceShape::from_scv(double scv) {
  return {[scv](double mean) { return ph::fit_scv(mean, scv); },
          "C2=" + std::to_string(scv)};
}

ServiceShape ServiceShape::power_tail(double alpha, std::size_t levels) {
  return {[alpha, levels](double mean) {
            return ph::truncated_power_tail(levels, alpha, mean);
          },
          "TPT(a=" + std::to_string(alpha) + ")"};
}

net::NetworkSpec central_cluster(std::size_t workstations,
                                 const ApplicationModel& app,
                                 const ClusterShapes& shapes,
                                 Contention contention) {
  if (workstations == 0) {
    throw std::invalid_argument("central_cluster: need >= 1 workstation");
  }
  app.validate();
  const double q = app.q();
  const double p1 = app.p1();
  const double p2 = app.p2();
  const std::size_t shared_mult =
      contention == Contention::kShared ? 1 : workstations;

  const bool scheduled = app.scheduler_overhead > 0.0;
  const std::size_t s = scheduled ? 5 : 4;

  std::vector<net::Station> stations;
  stations.push_back({"CPU", shapes.cpu.make(app.cpu_service()), workstations});
  stations.push_back(
      {"LDisk", shapes.local_disk.make(app.local_disk_service()), workstations});
  stations.push_back({"Comm", shapes.comm.make(app.comm_service()), shared_mult});
  stations.push_back(
      {"RDisk", shapes.remote_disk.make(app.remote_disk_service()), shared_mult});
  if (scheduled) {
    // One shared dispatcher every task crosses before its first CPU burst
    // (the paper's "scheduling overhead" extension hook).
    stations.push_back(
        {"Sched", ph::PhaseType::exponential(1.0 / app.scheduler_overhead), 1});
  }

  la::Vector entry(s, 0.0);
  entry[scheduled ? 4 : 0] = 1.0;
  la::Matrix routing(s, s, 0.0);
  routing(0, 1) = (1.0 - q) * p1;  // CPU -> local disk
  routing(0, 2) = (1.0 - q) * p2;  // CPU -> comm channel
  routing(1, 0) = 1.0;             // local disk -> CPU
  routing(2, 3) = 1.0;             // comm -> central disk
  routing(3, 0) = 1.0;             // central disk -> CPU
  if (scheduled) routing(4, 0) = 1.0;  // scheduler -> CPU
  la::Vector exit(s, 0.0);
  exit[0] = q;
  return net::NetworkSpec(std::move(stations), std::move(entry),
                          std::move(routing), std::move(exit));
}

net::NetworkSpec distributed_cluster(std::size_t workstations,
                                     const ApplicationModel& app,
                                     const ClusterShapes& shapes,
                                     const std::vector<double>& allocation,
                                     Contention contention) {
  if (workstations == 0) {
    throw std::invalid_argument("distributed_cluster: need >= 1 workstation");
  }
  app.validate();
  std::vector<double> alloc = allocation;
  if (alloc.empty()) {
    alloc.assign(workstations, 1.0 / static_cast<double>(workstations));
  }
  if (alloc.size() != workstations) {
    throw std::invalid_argument(
        "distributed_cluster: allocation size must equal workstations");
  }
  double asum = 0.0;
  for (double w : alloc) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "distributed_cluster: negative allocation weight");
    }
    asum += w;
  }
  if (std::abs(asum - 1.0) > 1e-9) {
    throw std::invalid_argument(
        "distributed_cluster: allocation must sum to 1");
  }

  const double q = app.q();
  const double p1 = app.p1();
  const double p2 = app.p2();
  const std::size_t shared_mult =
      contention == Contention::kShared ? 1 : workstations;
  const bool scheduled = app.scheduler_overhead > 0.0;
  // CPU, LDisk, Comm, D_1..D_K [, Sched]
  const std::size_t s = 3 + workstations + (scheduled ? 1 : 0);

  std::vector<net::Station> stations;
  stations.push_back({"CPU", shapes.cpu.make(app.cpu_service()), workstations});
  stations.push_back(
      {"LDisk", shapes.local_disk.make(app.local_disk_service()), workstations});
  stations.push_back({"Comm", shapes.comm.make(app.comm_service()), shared_mult});
  for (std::size_t i = 0; i < workstations; ++i) {
    stations.push_back({std::string("D").append(std::to_string(i + 1)),
                        shapes.remote_disk.make(app.remote_disk_service()),
                        shared_mult});
  }
  if (scheduled) {
    stations.push_back(
        {"Sched", ph::PhaseType::exponential(1.0 / app.scheduler_overhead), 1});
  }

  la::Vector entry(s, 0.0);
  entry[scheduled ? s - 1 : 0] = 1.0;
  la::Matrix routing(s, s, 0.0);
  routing(0, 1) = (1.0 - q) * p1;
  routing(0, 2) = (1.0 - q) * p2;
  routing(1, 0) = 1.0;
  for (std::size_t i = 0; i < workstations; ++i) {
    routing(2, 3 + i) = alloc[i];  // comm fans out by the data allocation
    routing(3 + i, 0) = 1.0;       // disks return to the CPU
  }
  if (scheduled) routing(s - 1, 0) = 1.0;  // scheduler -> CPU
  la::Vector exit(s, 0.0);
  exit[0] = q;
  return net::NetworkSpec(std::move(stations), std::move(entry),
                          std::move(routing), std::move(exit));
}

}  // namespace finwork::cluster
