#include "gnn/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "gnn/simd.h"

namespace muxlink::gnn {

Mlp::Mlp(int input_dim, const MlpConfig& config)
    : cfg_(config), input_dim_(input_dim), rng_(config.seed) {
  if (input_dim < 1) throw std::invalid_argument("Mlp: bad input dim");
  dims_.push_back(input_dim);
  for (int h : cfg_.hidden) {
    if (h < 1) throw std::invalid_argument("Mlp: bad hidden size");
    dims_.push_back(h);
  }
  dims_.push_back(2);
  for (std::size_t l = 0; l + 1 < dims_.size(); ++l) {
    Matrix w(dims_[l + 1], dims_[l]);
    w.glorot(rng_);
    params_.push_back(std::move(w));
    params_.emplace_back(1, dims_[l + 1]);  // bias
  }
  for (const Matrix& p : params_) {
    grads_.emplace_back(p.rows, p.cols);
    adam_m_.emplace_back(p.rows, p.cols);
    adam_v_.emplace_back(p.rows, p.cols);
  }
}

double Mlp::forward(const std::vector<double>& x, bool training, Workspace& ws) {
  if (static_cast<int>(x.size()) != input_dim_) {
    throw std::invalid_argument("Mlp: input dim mismatch");
  }
  const std::size_t layers = dims_.size() - 1;
  ws.act.assign(layers + 1, {});
  ws.mask.assign(layers + 1, {});
  ws.act[0] = x;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const KernelTable& kn = kernels();
  for (std::size_t l = 0; l < layers; ++l) {
    const Matrix& w = params_[2 * l];
    const Matrix& b = params_[2 * l + 1];
    std::vector<double> out(static_cast<std::size_t>(dims_[l + 1]), 0.0);
    for (int o = 0; o < w.rows; ++o) {
      out[static_cast<std::size_t>(o)] =
          kn.dot_acc(b.at(0, o), w.row(o), ws.act[l].data(), static_cast<std::size_t>(w.cols));
    }
    if (l + 1 < layers) {  // hidden: ReLU (+ dropout)
      ws.mask[l + 1].assign(out.size(), 1.0);
      for (std::size_t o = 0; o < out.size(); ++o) {
        out[o] = out[o] > 0.0 ? out[o] : 0.0;
        if (training && cfg_.dropout > 0.0) {
          if (unit(rng_) < cfg_.dropout) {
            ws.mask[l + 1][o] = 0.0;
            out[o] = 0.0;
          } else {
            ws.mask[l + 1][o] = 1.0 / (1.0 - cfg_.dropout);
            out[o] *= ws.mask[l + 1][o];
          }
        }
      }
    }
    ws.act[l + 1] = std::move(out);
  }
  const auto& logits = ws.act[layers];
  const double mx = std::max(logits[0], logits[1]);
  const double e0 = std::exp(logits[0] - mx);
  const double e1 = std::exp(logits[1] - mx);
  ws.prob1 = e1 / (e0 + e1);
  return ws.prob1;
}

double Mlp::predict(const std::vector<double>& x, bool training) {
  Workspace ws;
  return forward(x, training, ws);
}

double Mlp::accumulate_gradients(const std::vector<double>& x, int label) {
  Workspace ws;
  const double p1 = forward(x, /*training=*/true, ws);
  const std::size_t layers = dims_.size() - 1;

  std::vector<double> delta{(1.0 - p1) - (label == 0 ? 1.0 : 0.0),
                            p1 - (label == 1 ? 1.0 : 0.0)};
  const KernelTable& kn = kernels();
  for (std::size_t l = layers; l-- > 0;) {
    Matrix& gw = grads_[2 * l];
    Matrix& gb = grads_[2 * l + 1];
    const Matrix& w = params_[2 * l];
    const std::size_t prev = static_cast<std::size_t>(dims_[l]);
    std::vector<double> dprev(prev, 0.0);
    for (int o = 0; o < w.rows; ++o) {
      const double d = delta[static_cast<std::size_t>(o)];
      if (d == 0.0) continue;
      gb.at(0, o) += d;
      kn.axpy(d, ws.act[l].data(), gw.row(o), prev);
      kn.axpy(d, w.row(o), dprev.data(), prev);
    }
    if (l > 0) {  // through ReLU + dropout of the previous hidden layer
      kn.relu_dropout_backward(dprev.data(), ws.act[l].data(), ws.mask[l].data(), prev);
    }
    delta = std::move(dprev);
  }
  const double p_true = label == 1 ? p1 : 1.0 - p1;
  return -std::log(std::max(p_true, 1e-12));
}

void Mlp::adam_step(std::size_t batch_size) {
  const double b1 = 0.9, b2 = 0.999;
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  const double scale = batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
  const KernelTable& kn = kernels();
  for (std::size_t p = 0; p < params_.size(); ++p) {
    kn.adam_update(params_[p].data.data(), grads_[p].data.data(), adam_m_[p].data.data(),
                   adam_v_[p].data.data(), params_[p].data.size(), cfg_.learning_rate, bc1, bc2,
                   scale);
  }
}

void Mlp::load_parameters(const std::vector<Matrix>& p) {
  if (p.size() != params_.size()) throw std::invalid_argument("Mlp::load_parameters: mismatch");
  params_ = p;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const Matrix& p : params_) {
    n += static_cast<std::size_t>(p.rows) * static_cast<std::size_t>(p.cols);
  }
  return n;
}

void Mlp::zero_gradients() {
  for (Matrix& g : grads_) g.zero();
}

double evaluate_mlp_accuracy(Mlp& model, const std::vector<MlpSample>& samples) {
  if (samples.empty()) return 0.0;
  std::size_t correct = 0;
  for (const MlpSample& s : samples) {
    if ((model.predict(s.x) >= 0.5) == (s.label == 1)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(samples.size());
}

MlpTrainReport train_mlp(Mlp& model, const std::vector<MlpSample>& samples,
                         const MlpTrainOptions& opts) {
  MlpTrainReport report;
  if (samples.empty()) return report;
  std::mt19937_64 rng(opts.seed);
  std::vector<std::size_t> index(samples.size());
  std::iota(index.begin(), index.end(), 0);
  std::shuffle(index.begin(), index.end(), rng);
  constexpr double kValidationFraction = 0.1;
  std::size_t val_count =
      static_cast<std::size_t>(kValidationFraction * static_cast<double>(samples.size()));
  if (val_count < 8) val_count = 0;
  std::vector<MlpSample> val;
  std::vector<const MlpSample*> train;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (i < val_count) {
      val.push_back(samples[index[i]]);
    } else {
      train.push_back(&samples[index[i]]);
    }
  }
  if (val.empty()) {
    for (const MlpSample& s : samples) val.push_back(s);
  }

  auto best = model.save_parameters();
  double best_acc = -1.0;
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 1; epoch <= opts.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double loss = 0.0;
    std::size_t in_batch = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      loss += model.accumulate_gradients(train[order[i]]->x, train[order[i]]->label);
      if (++in_batch == static_cast<std::size_t>(opts.batch_size) || i + 1 == order.size()) {
        model.adam_step(in_batch);
        in_batch = 0;
      }
    }
    loss /= std::max<std::size_t>(1, train.size());
    const double acc = evaluate_mlp_accuracy(model, val);
    if (acc > best_acc || (acc == best_acc && loss < best_loss)) {
      best_acc = acc;
      best_loss = loss;
      report.best_epoch = epoch;
      best = model.save_parameters();
    }
  }
  model.load_parameters(best);
  report.best_val_accuracy = best_acc;
  return report;
}

}  // namespace muxlink::gnn
