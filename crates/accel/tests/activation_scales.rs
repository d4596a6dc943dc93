//! Pins the compiler's activation scales to the weight format's scale rule:
//! the input scale and every weight stage's output scale are the scale the
//! chip's 16-bit weight format gives the calibration batch's float values
//! at that point, bit for bit.

use dante_accel::program::Program;
use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
use dante_nn::network::Network;
use dante_nn::quant;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The weight format's scale for `values`.
fn format_scale(values: &[f32]) -> f32 {
    quant::quantize(values).scale()
}

/// Compiles `net` on `calibration` and checks the input scale and each
/// weight stage's output scale against [`format_scale`] of the float
/// values there: the calibration batch, and each weight layer's output
/// before its ReLU.
fn assert_scales_follow_the_format(net: &Network, calibration: &[f32]) {
    let program = Program::compile(net, calibration).expect("network compiles");
    assert_eq!(
        program.input_scale().to_bits(),
        format_scale(calibration).to_bits(),
        "input scale"
    );
    let batch = calibration.len() / net.in_len();
    let (activations, _) = net.forward_train(calibration, batch);
    let weight_outputs: Vec<&[f32]> = net
        .layers()
        .iter()
        .zip(&activations[1..])
        .filter(|(layer, _)| matches!(layer, Layer::Dense(_) | Layer::Conv2d(_)))
        .map(|(_, out)| out.as_slice())
        .collect();
    let stage_scales: Vec<f32> = program
        .layers()
        .iter()
        .filter_map(|stage| stage.out_scale())
        .collect();
    assert_eq!(stage_scales.len(), weight_outputs.len());
    for (stage, (scale, out)) in stage_scales.iter().zip(&weight_outputs).enumerate() {
        assert_eq!(
            scale.to_bits(),
            format_scale(out).to_bits(),
            "weight stage {stage}"
        );
    }
}

#[test]
fn activation_scales_are_the_weight_formats_scale() {
    // The seeded 64-64-10 program of `BENCH_mc.json`'s accelerator row.
    let mut rng = StdRng::seed_from_u64(0);
    let dense = Network::new(vec![
        Layer::Dense(Dense::new(64, 64, &mut rng)),
        Layer::Relu(Relu::new(64)),
        Layer::Dense(Dense::new(64, 10, &mut rng)),
    ])
    .unwrap();
    let sample: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
    assert_scales_follow_the_format(&dense, &sample);
    let batch: Vec<f32> = (0..64 * 3)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    assert_scales_follow_the_format(&dense, &batch);

    // A conv stage with a fused ReLU, a max-pool (which keeps the
    // activation scale) and a dense head.
    let mut rng = StdRng::seed_from_u64(7);
    let conv = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(2, 8, 8), 4, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(4 * 64)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
        Layer::Dense(Dense::new(64, 5, &mut rng)),
    ])
    .unwrap();
    let calibration: Vec<f32> = (0..conv.in_len() * 3)
        .map(|i| ((i * 53) % 97) as f32 / 97.0 - 0.3)
        .collect();
    assert_scales_follow_the_format(&conv, &calibration);
}
