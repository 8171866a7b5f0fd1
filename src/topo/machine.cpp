#include "topo/machine.hpp"

#include <sstream>

namespace rails {

std::vector<CoreId> MachineTopology::neighbours_by_distance(CoreId from) const {
  std::vector<CoreId> out;
  out.reserve(core_count() - 1);
  for_each_neighbour(from, [&out](CoreId c) { out.push_back(c); });
  return out;
}

std::string MachineTopology::describe() const {
  std::ostringstream os;
  os << sockets << " socket(s) x " << cores_per_socket << " core(s) = " << core_count()
     << " cores";
  return os.str();
}

}  // namespace rails
