//! The paper's workload zoo (§4 "DNN models").
//!
//! Layer geometry follows the published architectures; batch sizes follow
//! the paper's note that they ranged from 64 to 143 samples depending on
//! GPU memory. Recurrent models (img2txt's LSTM decoder, SNLI's sentence
//! encoders) appear as the GEMM layer stacks the accelerator actually
//! executes — Table 1 of the paper treats fully-connected layers as 1×1
//! convolutions, and a recurrent step is a fully-connected layer evaluated
//! per token.
//!
//! Sparsity profiles are *calibrated*, not traced (no GPUs/ImageNet here —
//! DESIGN.md §3): curve shapes follow the paper's §4.2 narrative (dense
//! models ramp up as the network learns which features are irrelevant, then
//! decay mildly in the second half; DS90/SM90 spike at the aggressive
//! early-pruning phase and settle as weights are reclaimed), and levels are
//! tuned so the regenerated Fig 13 lands near the paper's per-model
//! speedups.

use crate::profile::{Curve, SparsityProfile};
use tensordash_trace::ConvDims;

/// One layer of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name (unique within the model).
    pub name: String,
    /// Geometry.
    pub dims: ConvDims,
}

impl LayerSpec {
    fn new(name: impl Into<String>, dims: ConvDims) -> Self {
        LayerSpec {
            name: name.into(),
            dims,
        }
    }
}

/// A workload: named layers plus a sparsity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as the paper labels it.
    pub name: String,
    /// Layers in network order.
    pub layers: Vec<LayerSpec>,
    /// Calibrated sparsity behaviour.
    pub profile: SparsityProfile,
}

impl ModelSpec {
    /// Total forward-pass MACs of one batch.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.dims.macs()).sum()
    }
}

/// One zoo model: its name and its constructor.
pub type ZooEntry = (&'static str, fn() -> ModelSpec);

/// Every model the zoo can build, by name: the eight traced models of the
/// paper's evaluation in figure order, then the GCN guard-rail case and
/// the transformer-scale ViT-L MLP block. Each name is its constructor's
/// [`ModelSpec::name`].
pub const ZOO: [ZooEntry; 10] = [
    ("AlexNet", alexnet),
    ("DenseNet121", densenet121),
    ("SqueezeNet", squeezenet),
    ("VGG16", vgg16),
    ("img2txt", img2txt),
    ("resnet50_DS90", resnet50_ds90),
    ("resnet50_SM90", resnet50_sm90),
    ("SNLI", snli),
    ("GCN", gcn),
    ("ViT-L-MLP", vit_l_mlp),
];

/// How many of [`ZOO`]'s entries, from the first, are the paper's traced
/// models.
const PAPER_MODELS: usize = 8;

/// The eight traced models of the paper's evaluation, in figure order.
#[must_use]
pub fn paper_models() -> Vec<ModelSpec> {
    ZOO[..PAPER_MODELS]
        .iter()
        .map(|(_, build)| build())
        .collect()
}

/// Builds the zoo model named `name`, matched ASCII case-insensitively;
/// `None` when the zoo has no such model. Only that model is built.
#[must_use]
pub fn by_name(name: &str) -> Option<ModelSpec> {
    ZOO.iter()
        .find(|(entry, _)| entry.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

#[allow(clippy::too_many_arguments)]
fn conv(
    name: &str,
    n: usize,
    c: usize,
    hw: usize,
    f: usize,
    k: usize,
    s: usize,
    p: usize,
) -> LayerSpec {
    LayerSpec::new(name, ConvDims::conv_square(n, c, hw, f, k, s, p))
}

fn fc(name: &str, n: usize, inputs: usize, outputs: usize) -> LayerSpec {
    LayerSpec::new(name, ConvDims::fully_connected(n, inputs, outputs))
}

/// AlexNet (Krizhevsky et al.), batch 128.
#[must_use]
pub fn alexnet() -> ModelSpec {
    let n = 128;
    ModelSpec {
        name: "AlexNet".into(),
        layers: vec![
            conv("conv1", n, 3, 224, 64, 11, 4, 2),
            conv("conv2", n, 64, 27, 192, 5, 1, 2),
            conv("conv3", n, 192, 13, 384, 3, 1, 1),
            conv("conv4", n, 384, 13, 256, 3, 1, 1),
            conv("conv5", n, 256, 13, 256, 3, 1, 1),
            fc("fc6", n, 9216, 4096),
            fc("fc7", n, 4096, 4096),
            fc("fc8", n, 4096, 1000),
        ],
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.52),
                (0.06, 0.70),
                (0.45, 0.75),
                (0.75, 0.70),
                (1.0, 0.70),
            ]),
            grad: Curve::new(&[
                (0.0, 0.60),
                (0.06, 0.79),
                (0.45, 0.83),
                (0.75, 0.78),
                (1.0, 0.78),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.20,
            depth_slope: 0.15,
            wg_override: None,
        },
    }
}

/// DenseNet121 (Huang et al.), batch 64. Generated programmatically:
/// 4 dense blocks of (6, 12, 24, 16) layers, growth rate 32, each layer a
/// 1×1 bottleneck to 128 channels followed by a 3×3 convolution to 32.
#[must_use]
pub fn densenet121() -> ModelSpec {
    let n = 64;
    let growth = 32;
    let mut layers = vec![conv("conv0", n, 3, 224, 64, 7, 2, 3)];
    let mut channels = 64;
    let mut hw = 56;
    for (b, &block_layers) in [6usize, 12, 24, 16].iter().enumerate() {
        for l in 0..block_layers {
            let cin = channels + l * growth;
            layers.push(conv(&format!("b{b}l{l}_1x1"), n, cin, hw, 128, 1, 1, 0));
            layers.push(conv(&format!("b{b}l{l}_3x3"), n, 128, hw, growth, 3, 1, 1));
        }
        channels += block_layers * growth;
        if b < 3 {
            // Transition: 1x1 halving channels, then 2x2 average pool.
            layers.push(conv(
                &format!("trans{b}"),
                n,
                channels,
                hw,
                channels / 2,
                1,
                1,
                0,
            ));
            channels /= 2;
            hw /= 2;
        }
    }
    layers.push(fc("classifier", n, channels, 1000));
    ModelSpec {
        name: "DenseNet121".into(),
        layers,
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.48),
                (0.06, 0.60),
                (0.45, 0.65),
                (0.75, 0.60),
                (1.0, 0.60),
            ]),
            grad: Curve::new(&[
                (0.0, 0.35),
                (0.06, 0.46),
                (0.45, 0.50),
                (0.75, 0.46),
                (1.0, 0.46),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.20,
            depth_slope: 0.15,
            // §4.1: BN between each convolution and ReLU absorbs the
            // gradient sparsity the W×G pass would otherwise exploit.
            wg_override: Some(Curve::constant(0.15)),
        },
    }
}

/// SqueezeNet 1.0 (Iandola et al.), batch 128.
#[must_use]
pub fn squeezenet() -> ModelSpec {
    let n = 128;
    let mut layers = vec![conv("conv1", n, 3, 224, 96, 7, 2, 0)];
    // (input channels, squeeze, expand) per fire module, with spatial size.
    let fires: [(usize, usize, usize, usize); 8] = [
        (96, 16, 64, 54),
        (128, 16, 64, 54),
        (128, 32, 128, 54),
        (256, 32, 128, 27),
        (256, 48, 192, 27),
        (384, 48, 192, 27),
        (384, 64, 256, 27),
        (512, 64, 256, 13),
    ];
    for (i, &(cin, squeeze, expand, hw)) in fires.iter().enumerate() {
        let f = i + 2;
        layers.push(conv(
            &format!("fire{f}_squeeze"),
            n,
            cin,
            hw,
            squeeze,
            1,
            1,
            0,
        ));
        layers.push(conv(
            &format!("fire{f}_expand1"),
            n,
            squeeze,
            hw,
            expand,
            1,
            1,
            0,
        ));
        layers.push(conv(
            &format!("fire{f}_expand3"),
            n,
            squeeze,
            hw,
            expand,
            3,
            1,
            1,
        ));
    }
    layers.push(conv("conv10", n, 512, 13, 1000, 1, 1, 0));
    ModelSpec {
        name: "SqueezeNet".into(),
        layers,
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.40),
                (0.06, 0.52),
                (0.45, 0.56),
                (0.75, 0.51),
                (1.0, 0.51),
            ]),
            grad: Curve::new(&[
                (0.0, 0.48),
                (0.06, 0.62),
                (0.45, 0.67),
                (0.75, 0.62),
                (1.0, 0.62),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.20,
            depth_slope: 0.15,
            wg_override: None,
        },
    }
}

/// VGG16 (Simonyan & Zisserman), batch 64.
#[must_use]
pub fn vgg16() -> ModelSpec {
    let n = 64;
    let cfg: [(usize, usize, usize); 13] = [
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ];
    let mut layers: Vec<LayerSpec> = cfg
        .iter()
        .enumerate()
        .map(|(i, &(cin, cout, hw))| conv(&format!("conv{}", i + 1), n, cin, hw, cout, 3, 1, 1))
        .collect();
    layers.push(fc("fc14", n, 25088, 4096));
    layers.push(fc("fc15", n, 4096, 4096));
    layers.push(fc("fc16", n, 4096, 1000));
    ModelSpec {
        name: "VGG16".into(),
        layers,
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.50),
                (0.06, 0.67),
                (0.45, 0.72),
                (0.75, 0.67),
                (1.0, 0.67),
            ]),
            grad: Curve::new(&[
                (0.0, 0.58),
                (0.06, 0.77),
                (0.45, 0.82),
                (0.75, 0.77),
                (1.0, 0.77),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.20,
            depth_slope: 0.15,
            wg_override: None,
        },
    }
}

/// img2txt (Show-and-Tell-style CNN encoder + LSTM decoder), batch 100.
/// The decoder's gate GEMMs run once per generated token (16 steps here).
#[must_use]
pub fn img2txt() -> ModelSpec {
    let n = 100;
    let steps = 16;
    ModelSpec {
        name: "img2txt".into(),
        layers: vec![
            conv("enc_conv1", n, 3, 224, 64, 7, 2, 3),
            conv("enc_conv2", n, 64, 56, 128, 3, 1, 1),
            conv("enc_conv3", n, 128, 28, 256, 3, 1, 1),
            conv("enc_conv4", n, 256, 14, 512, 3, 1, 1),
            conv("enc_conv5", n, 512, 7, 512, 3, 1, 1),
            fc("enc_embed", n, 512 * 7 * 7, 512),
            fc("lstm_gates", n * steps, 1024, 2048),
            fc("vocab", n * steps, 512, 12000),
        ],
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.50),
                (0.06, 0.65),
                (0.45, 0.70),
                (0.75, 0.66),
                (1.0, 0.66),
            ]),
            grad: Curve::new(&[
                (0.0, 0.58),
                (0.06, 0.75),
                (0.45, 0.80),
                (0.75, 0.76),
                (1.0, 0.76),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.20,
            depth_slope: 0.10,
            wg_override: None,
        },
    }
}

fn resnet50_layers(n: usize) -> Vec<LayerSpec> {
    let mut layers = vec![conv("conv1", n, 3, 224, 64, 7, 2, 3)];
    // (blocks, mid channels, out channels, spatial) per stage.
    let stages: [(usize, usize, usize, usize); 4] = [
        (3, 64, 256, 56),
        (4, 128, 512, 28),
        (6, 256, 1024, 14),
        (3, 512, 2048, 7),
    ];
    let mut cin = 64;
    for (s, &(blocks, mid, cout, hw)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let prefix = format!("s{}b{}", s + 2, b);
            layers.push(conv(&format!("{prefix}_1x1a"), n, cin, hw, mid, 1, 1, 0));
            layers.push(conv(&format!("{prefix}_3x3"), n, mid, hw, mid, 3, 1, 1));
            layers.push(conv(&format!("{prefix}_1x1b"), n, mid, hw, cout, 1, 1, 0));
            if b == 0 {
                layers.push(conv(&format!("{prefix}_proj"), n, cin, hw, cout, 1, 1, 0));
            }
            cin = cout;
        }
    }
    layers.push(fc("fc", n, 2048, 1000));
    layers
}

/// ResNet50 trained with dynamic sparse reparameterization at 90% target
/// weight sparsity (Mostafa & Wang) — the paper's `resnet50_DS90`.
#[must_use]
pub fn resnet50_ds90() -> ModelSpec {
    ModelSpec {
        name: "resnet50_DS90".into(),
        layers: resnet50_layers(96),
        profile: SparsityProfile {
            // §4.2: aggressive early pruning, then training "reclaims"
            // weights; speedup starts ~1.95x and settles ~1.8x.
            act: Curve::new(&[
                (0.0, 0.68),
                (0.03, 0.64),
                (0.08, 0.60),
                (0.3, 0.58),
                (1.0, 0.58),
            ]),
            grad: Curve::new(&[
                (0.0, 0.76),
                (0.03, 0.72),
                (0.08, 0.69),
                (0.3, 0.68),
                (1.0, 0.68),
            ]),
            weight: Curve::new(&[(0.0, 0.93), (0.05, 0.91), (1.0, 0.90)]),
            clustering: 0.25,
            depth_slope: 0.10,
            wg_override: None,
        },
    }
}

/// ResNet50 trained with sparse momentum at 90% target weight sparsity
/// (Dettmers & Zettlemoyer) — the paper's `resnet50_SM90`.
#[must_use]
pub fn resnet50_sm90() -> ModelSpec {
    ModelSpec {
        name: "resnet50_SM90".into(),
        layers: resnet50_layers(96),
        profile: SparsityProfile {
            // Speedup starts ~1.75x and settles ~1.5x.
            act: Curve::new(&[
                (0.0, 0.58),
                (0.03, 0.52),
                (0.1, 0.47),
                (0.3, 0.45),
                (1.0, 0.45),
            ]),
            grad: Curve::new(&[
                (0.0, 0.66),
                (0.03, 0.60),
                (0.1, 0.56),
                (0.3, 0.55),
                (1.0, 0.55),
            ]),
            weight: Curve::new(&[(0.0, 0.92), (0.05, 0.90), (1.0, 0.90)]),
            clustering: 0.25,
            depth_slope: 0.10,
            wg_override: None,
        },
    }
}

/// SNLI sentence-pair classifier (Bowman et al. corpus), batch 143.
/// Token-level projection/attention/comparison GEMMs plus the pair-level
/// classifier.
#[must_use]
pub fn snli() -> ModelSpec {
    let n = 143;
    let tokens = 25;
    ModelSpec {
        name: "SNLI".into(),
        layers: vec![
            fc("embed_proj", n * tokens, 300, 300),
            fc("attend_f1", n * tokens, 300, 200),
            fc("attend_f2", n * tokens, 200, 200),
            fc("compare_g1", n * tokens, 600, 200),
            fc("compare_g2", n * tokens, 200, 200),
            fc("aggregate_h1", n, 400, 200),
            fc("aggregate_h2", n, 200, 200),
            fc("classifier", n, 200, 3),
        ],
        profile: SparsityProfile {
            act: Curve::new(&[
                (0.0, 0.62),
                (0.06, 0.78),
                (0.45, 0.82),
                (0.75, 0.79),
                (1.0, 0.79),
            ]),
            grad: Curve::new(&[
                (0.0, 0.66),
                (0.06, 0.82),
                (0.45, 0.86),
                (0.75, 0.83),
                (1.0, 0.83),
            ]),
            weight: Curve::constant(0.0),
            clustering: 0.15,
            depth_slope: 0.10,
            wg_override: None,
        },
    }
}

/// GCN — the gated convolutional language model (Dauphin et al.) trained on
/// Wikitext-2 (§4.4): gated linear units produce no exact zeros, so the
/// model exhibits virtually no sparsity (a few layers around 5%).
#[must_use]
pub fn gcn() -> ModelSpec {
    let n = 64;
    let seq = 64;
    let mut layers = vec![fc("embed", n * seq, 280, 512)];
    for i in 0..8 {
        // 1-D convolutions over the token dimension (width 1, kernel 5x1).
        layers.push(LayerSpec::new(
            format!("glu_conv{i}"),
            ConvDims::conv(n, 512, seq, 1, 512, 5, 1, 1, 0),
        ));
    }
    layers.push(fc("vocab", n * seq, 512, 33278));
    ModelSpec {
        name: "GCN".into(),
        layers,
        profile: SparsityProfile {
            act: Curve::constant(0.03),
            grad: Curve::constant(0.02),
            weight: Curve::constant(0.0),
            clustering: 0.0,
            depth_slope: 1.0, // a few layers reach ~5%
            wg_override: None,
        },
    }
}

/// ViT-L MLP block (Dosovitskiy et al.), shapes as profiled in the
/// torchao activation-sparsity work: 44160 tokens through the
/// hidden-1024 → 4096 → 1024 feed-forward pair. Not one of the paper's
/// eight traced models — it is the transformer-scale regime the
/// wide-word kernel and intra-run sharding target: two enormous GEMMs
/// instead of many small convolutions, so a single (layer, op) item
/// dominates the run.
#[must_use]
pub fn vit_l_mlp() -> ModelSpec {
    let tokens = 44160;
    ModelSpec {
        name: "ViT-L-MLP".into(),
        layers: vec![
            fc("mlp_fc1", tokens, 1024, 4096),
            fc("mlp_fc2", tokens, 4096, 1024),
        ],
        profile: SparsityProfile {
            // Calibrated, not traced: GELU feed-forwards zero out well
            // over half the expanded dimension once training settles
            // (the activation-sparsity literature's consistent finding),
            // and gradients mirror the activations through the same
            // gate. Flat depth slope — two layers, same block.
            act: Curve::new(&[(0.0, 0.45), (0.1, 0.62), (0.5, 0.68), (1.0, 0.66)]),
            grad: Curve::new(&[(0.0, 0.50), (0.1, 0.68), (0.5, 0.74), (1.0, 0.72)]),
            weight: Curve::constant(0.0),
            clustering: 0.15,
            depth_slope: 0.05,
            wg_override: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_eight_paper_models_are_present() {
        let names: Vec<String> = paper_models().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec![
                "AlexNet",
                "DenseNet121",
                "SqueezeNet",
                "VGG16",
                "img2txt",
                "resnet50_DS90",
                "resnet50_SM90",
                "SNLI"
            ]
        );
    }

    #[test]
    fn every_zoo_entry_is_named_after_its_model() {
        for (name, build) in ZOO {
            assert_eq!(build().name, name);
        }
        let paper: Vec<String> = paper_models().into_iter().map(|m| m.name).collect();
        let first: Vec<&str> = ZOO[..8].iter().map(|(name, _)| *name).collect();
        assert_eq!(
            paper, first,
            "the paper's models are the table's first eight"
        );
    }

    #[test]
    fn lookup_is_ascii_case_insensitive() {
        for (name, _) in ZOO {
            for query in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.to_ascii_uppercase(),
            ] {
                assert_eq!(by_name(&query).map(|m| m.name), Some(name.to_string()));
            }
        }
        assert_eq!(by_name("vit-l-mlp").unwrap(), vit_l_mlp());
        assert!(by_name("LeNet").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn alexnet_layer_shapes_are_canonical() {
        let m = alexnet();
        assert_eq!(m.layers.len(), 8);
        assert_eq!(m.layers[0].dims.output_hw(), (55, 55));
        assert_eq!(m.layers[1].dims.output_hw(), (27, 27));
        assert_eq!(m.layers[4].dims.f, 256);
        assert_eq!(m.layers[5].dims.c, 9216);
    }

    #[test]
    fn densenet_has_121_weighted_layers() {
        // 1 stem + 58 dense layers x 2 convs + 3 transitions + 1 classifier
        // = 121 weighted layers, the network's namesake.
        let m = densenet121();
        assert_eq!(m.layers.len(), 1 + 58 * 2 + 3 + 1);
        // Final block input: 512 + 16*32 = 1024 channels at 7x7.
        let classifier = m.layers.last().unwrap();
        assert_eq!(classifier.dims.c, 1024);
    }

    #[test]
    fn resnet50_has_53_convolutions_plus_fc() {
        let m = resnet50_ds90();
        let convs = m
            .layers
            .iter()
            .filter(|l| l.dims.kh > 1 || l.dims.c > 3)
            .count();
        assert_eq!(m.layers.len(), 1 + (3 + 4 + 6 + 3) * 3 + 4 + 1);
        assert!(convs > 0);
    }

    #[test]
    fn vgg16_macs_dominated_by_convs() {
        let m = vgg16();
        let total = m.total_macs();
        let fc_macs: u64 = m
            .layers
            .iter()
            .filter(|l| l.dims.h == 1)
            .map(|l| l.dims.macs())
            .sum();
        assert!(fc_macs * 5 < total, "convs must dominate VGG16 compute");
    }

    #[test]
    fn batch_sizes_are_within_paper_range() {
        // Token-level layers use batch x tokens rows; the underlying batch
        // (the minimum n across layers) must stay in the paper's 64..=143.
        for m in paper_models() {
            let n = m.layers.iter().map(|l| l.dims.n).min().unwrap();
            assert!((64..=143).contains(&n), "{}: batch {n}", m.name);
        }
    }

    #[test]
    fn pruned_models_carry_weight_sparsity() {
        assert!(resnet50_ds90().profile.weight_at(1.0) >= 0.9);
        assert!(resnet50_sm90().profile.weight_at(1.0) >= 0.9);
        assert_eq!(alexnet().profile.weight_at(1.0), 0.0);
    }

    #[test]
    fn gcn_is_essentially_dense() {
        let m = gcn();
        assert!(m.profile.act_at(0.5, 0.5) < 0.05);
        assert!(m.profile.act_at(0.5, 1.0) <= 0.05 * 1.5);
    }

    #[test]
    fn vit_mlp_is_two_transformer_scale_gemms() {
        let m = vit_l_mlp();
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.layers[0].dims.n, 44160);
        assert_eq!(m.layers[0].dims.c, 1024);
        assert_eq!(m.layers[0].dims.f, 4096);
        assert_eq!(m.layers[1].dims.c, 4096);
        assert_eq!(m.layers[1].dims.f, 1024);
        // The whole model is two GEMMs, each bigger than AlexNet's
        // entire forward pass — the single-big-item regime.
        assert!(m.layers[0].dims.macs() > alexnet().total_macs());
    }

    #[test]
    fn squeezenet_fire_modules_expand_symmetrically() {
        let m = squeezenet();
        let e1 = m.layers.iter().find(|l| l.name == "fire2_expand1").unwrap();
        let e3 = m.layers.iter().find(|l| l.name == "fire2_expand3").unwrap();
        assert_eq!(e1.dims.f, e3.dims.f);
        assert_eq!(e1.dims.kh, 1);
        assert_eq!(e3.dims.kh, 3);
    }
}
