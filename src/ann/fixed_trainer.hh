/**
 * @file
 * Fully fixed-point on-line training (paper Section IV scenarios).
 *
 * The paper's accelerator targets the off-line scenario (training
 * on a companion core in floating point) but notes that "the
 * accelerator can also be extended to include training hardware for
 * tackling both the on-line and off-line scenarios". This trainer
 * models that extension: gradients, deltas and weight updates are
 * all computed in Q6.10 with hardware semantics, so the entire
 * learning loop could live next to the array (smart sensors,
 * industrial control — the paper's on-line use cases). It trains
 * through an arbitrary layer stack, sharing the epoch core in
 * ann/train_core.hh with the float Trainer.
 *
 * Q6.10 weight updates underflow for very small gradients, so
 * on-line training prefers somewhat larger learning rates; the
 * trainer exposes the same Hyper knobs as the float Trainer.
 */

#ifndef DTANN_ANN_FIXED_TRAINER_HH
#define DTANN_ANN_FIXED_TRAINER_HH

#include "ann/trainer.hh"
#include "common/fixed_point.hh"

namespace dtann {

/** On-line back-propagation with Q6.10 arithmetic throughout. */
class FixedTrainer
{
  public:
    explicit FixedTrainer(Hyper hyper) : hyper(hyper) {}

    /**
     * Train @p model on @p train_set through its full layer stack
     * with fixed-point updates.
     *
     * The shadow weights are Q6.10; every arithmetic step uses
     * saturating fixed-point operations (a training datapath would
     * saturate rather than wrap to keep learning stable).
     *
     * @return final weights (converted to double storage)
     */
    DeepWeights train(ForwardModel &model, const Dataset &train_set,
                      Rng &rng, const DeepWeights *init = nullptr) const;

    const Hyper &hyperParams() const { return hyper; }

  private:
    Hyper hyper;
};

} // namespace dtann

#endif // DTANN_ANN_FIXED_TRAINER_HH
