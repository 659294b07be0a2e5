/**
 * @file
 * Figure 18: predictor accuracy vs training-set ratio for Llama2-7B
 * and Llama2-13B. The paper collects ~16K samples per predictor from
 * MT-Bench traces and shows that ~2% of them already reach good
 * accuracy (total training time ~5 minutes). Also prints the wall
 * time of each model's pipeline construction, which holds all of the
 * offline profiling and training.
 */

#include <thread>

#include "bench_common.hh"
#include "core/predictor_trainer.hh"
#include "util/logging.hh"
#include "util/stopwatch.hh"

using namespace specee;
using namespace specee::benchutil;

int
main()
{
    metrics::Table setup(strfmt("Pipeline construction (weights, "
                                "profiling, training), wall clock on "
                                "%u hardware threads",
                                std::thread::hardware_concurrency()));
    setup.header({"model", "samples/layer", "wall s", "weights s",
                  "profiling s", "training s"});
    for (const char *model : {"llama2-7b", "llama2-13b"}) {
        const Stopwatch sw;
        const auto &pipe = pipeline(model);
        const double wall = sw.seconds();
        const auto &data = pipe.profileData();
        const engines::PipelineTimes phase = pipe.phaseTimes();
        setup.row({model, std::to_string(data.specee.front().size()),
                   metrics::Table::num(wall, 2),
                   metrics::Table::num(phase.weights_s, 2),
                   metrics::Table::num(phase.profiling_s, 2),
                   metrics::Table::num(phase.training_s, 2)});
        metrics::Table t(std::string("Figure 18: accuracy vs training "
                                     "set ratio, ") +
                         model);
        t.header({"training ratio", "samples/layer", "held-out accuracy"});
        for (double ratio : {0.01, 0.02, 0.05, 0.10, 0.20, 0.35, 0.50,
                             0.75, 1.00}) {
            core::ExitPredictor bank(
                static_cast<int>(data.specee.size()), 12, 512, 2,
                0x18);
            core::TrainerOptions opts;
            opts.data_ratio = ratio;
            opts.train.epochs = 15;
            auto rep = core::PredictorTrainer::train(bank, data, opts);
            t.row({metrics::Table::num(100.0 * ratio, 1) + "%",
                   std::to_string(rep.samples_used /
                                  data.specee.size()),
                   metrics::Table::num(100.0 * rep.mean_test_accuracy,
                                       1) +
                       "%"});
        }
        t.print();
    }
    setup.print();
    std::printf("\nPaper: accuracy saturates near ~2%% of the 16K "
                "training samples (Fig. 18);\nthe small-sample floor "
                "here is higher because our profiling runs are "
                "shorter.\n");
    return 0;
}
