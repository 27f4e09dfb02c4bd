//! The record one repetition prints: named fields plus per-layer numbers.

use mempool_obs::Json;

#[derive(Default)]
pub struct Out {
    fields: Vec<(String, Json)>,
    layer: Vec<(String, f64)>,
}

impl Out {
    pub fn field(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_string(), value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.field(key, Json::Float(value));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.field(key, Json::Int(value as i64));
    }

    /// A per-layer metric (see the README's layer map).
    pub fn layer(&mut self, key: &str, value: f64) {
        self.layer.push((key.to_string(), value));
    }

    /// The fields, then the per-layer metrics as one `layer` object.
    pub fn into_fields(mut self) -> Vec<(String, Json)> {
        let layer = self
            .layer
            .into_iter()
            .map(|(k, v)| (k, Json::Float(v)))
            .collect();
        self.fields.push(("layer".to_string(), Json::Obj(layer)));
        self.fields
    }
}
