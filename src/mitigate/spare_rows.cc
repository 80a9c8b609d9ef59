#include "mitigate/spare_rows.hh"

#include <algorithm>

namespace dtann {

namespace {

/** The diagnosed output rows and the ascending walk over the clean
 *  spares, each handed out once. */
class SpareRows
{
  public:
    SpareRows(const DefectMap &map, MlpTopology logical,
              const AcceleratorConfig &cfg)
        : bad(map.suspectNeurons(Layer::Output)),
          next(logical.outputs), end(cfg.outputs)
    {
    }

    /** Whether any output-layer unit on @p row is suspect. */
    bool faulty(int row) const
    {
        return std::binary_search(bad.begin(), bad.end(), row);
    }

    /** The next clean spare row, or -1 once they have run out. */
    int take()
    {
        while (next < end && faulty(next))
            ++next;
        return next < end ? next++ : -1;
    }

  private:
    std::vector<int> bad;
    int next;
    int end;
};

} // namespace

MlpTopology
spareRowTopology(MlpTopology logical, const AcceleratorConfig &cfg)
{
    return {logical.inputs, logical.hidden, cfg.outputs};
}

std::vector<std::vector<int>>
planOutputRemap(const DefectMap &map, MlpTopology logical,
                const AcceleratorConfig &cfg)
{
    SpareRows spares(map, logical, cfg);
    std::vector<std::vector<int>> groups(
        static_cast<size_t>(logical.outputs));
    for (int k = 0; k < logical.outputs; ++k) {
        int row = k;
        if (spares.faulty(k)) {
            int spare = spares.take();
            if (spare >= 0)
                row = spare;
            // else: out of spares, keep the faulty row.
        }
        groups[static_cast<size_t>(k)] = {row};
    }
    return groups;
}

std::vector<std::vector<int>>
planOutputReplication(const DefectMap &map, MlpTopology logical,
                      const AcceleratorConfig &cfg)
{
    SpareRows spares(map, logical, cfg);
    std::vector<std::vector<int>> groups(
        static_cast<size_t>(logical.outputs));
    for (int k = 0; k < logical.outputs; ++k) {
        groups[static_cast<size_t>(k)] = {k};
        if (!spares.faulty(k))
            continue;
        // Recruit up to two clean spares: the original stays in the
        // vote, so a median-of-3 outvotes it when it misbehaves and
        // a pair averages when only one spare is left.
        for (int copies = 0; copies < 2; ++copies) {
            int spare = spares.take();
            if (spare < 0)
                break;
            groups[static_cast<size_t>(k)].push_back(spare);
        }
    }
    return groups;
}

} // namespace dtann
