/**
 * @file
 * Synthetic stand-ins for the paper's 10 UCI benchmark tasks.
 *
 * The original UCI data files are not bundled; instead each task is
 * generated as a Gaussian mixture with exactly the paper's number
 * of attributes and classes (Table II) and a per-task difficulty
 * chosen so the trained-network accuracy spread resembles the
 * paper's Fig 10 baseline (roughly 0.75-0.97). Defect-tolerance
 * behaviour depends on the network topology and input
 * dimensionality, which match the paper exactly; see DESIGN.md for
 * the substitution rationale. Real UCI CSV files can be loaded with
 * data/csv.hh instead.
 */

#ifndef DTANN_DATA_SYNTH_UCI_HH
#define DTANN_DATA_SYNTH_UCI_HH

#include <string>
#include <vector>

#include "data/dataset.hh"

namespace dtann {

/** Description of one benchmark task (paper Table II). */
struct UciTaskSpec
{
    std::string name;
    int attributes;     ///< # inputs
    int classes;        ///< # outputs
    int rows;           ///< examples in the original dataset
    double difficulty;  ///< cluster overlap, 0 = separable
    // Paper's best hyper-parameters (Table II), for reference and
    // as defaults when skipping the grid search.
    double learningRate;
    int epochs;
    int hidden;
};

/** The paper's 10-task benchmark suite. */
const std::vector<UciTaskSpec> &uciTasks();

/**
 * Find a task spec by name. An unknown name is a spec error: throws
 * JsonError naming the accepted tasks.
 */
const UciTaskSpec &uciTask(const std::string &name);

/**
 * Generate the synthetic dataset for @p spec.
 *
 * @param spec task description
 * @param rng randomness source (generation is deterministic per
 *        seed)
 * @param rows number of examples, or 0 for the original size
 */
Dataset makeSyntheticTask(const UciTaskSpec &spec, Rng &rng,
                          size_t rows = 0);

} // namespace dtann

#endif // DTANN_DATA_SYNTH_UCI_HH
