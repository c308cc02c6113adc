#include "util/stats.hh"

#include <iomanip>

namespace rest::stats
{

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[stat, scalar] : scalars_) {
        os << std::left << std::setw(46) << (name_ + "." + stat)
           << std::setw(20) << std::to_string(scalar.value());
        auto it = descs_.find(stat);
        if (it != descs_.end() && !it->second.empty())
            os << "# " << it->second;
        os << "\n";
    }
}

} // namespace rest::stats
