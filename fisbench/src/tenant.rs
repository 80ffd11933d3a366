//! A fitted building with its held-out scans and their reference answers.

use fis_core::FittedModel;
use fis_types::json::{Json, ToJson};
use fis_types::FloorId;

use crate::corpus::Site;
use crate::report::Outcome;

pub struct Tenant {
    pub site: Site,
    pub model: FittedModel,
    /// Wire form of each held-out scan, rendered once in set-up.
    pub held_json: Vec<String>,
    /// `FittedModel::assign` of each held-out scan, computed in process:
    /// every served answer must equal it.
    pub references: Vec<Option<FloorId>>,
}

impl Tenant {
    /// Computes the reference answers, counting each as one checked
    /// operation (a scan the model cannot assign fails).
    pub fn new(site: Site, model: FittedModel, out: &mut Outcome) -> Self {
        let references: Vec<Option<FloorId>> = site
            .held_out
            .iter()
            .enumerate()
            .map(|(i, scan)| {
                let floor = model.assign(scan);
                out.check(floor.is_ok(), || {
                    format!("{} held-out scan {i}: {floor:?}", site.name())
                });
                floor.ok()
            })
            .collect();
        let held_json = site
            .held_out
            .iter()
            .map(|scan| scan.to_json().to_string())
            .collect();
        Self {
            site,
            model,
            held_json,
            references,
        }
    }

    pub fn name(&self) -> &str {
        self.site.name()
    }

    /// Held-out scans whose reference answer is the true floor.
    pub fn right(&self) -> usize {
        self.references
            .iter()
            .zip(&self.site.held_truth)
            .filter(|(got, truth)| got.as_ref() == Some(truth))
            .count()
    }

    /// Makes one reference answer wrong, for the self-test.
    pub fn corrupt(&mut self, scan: usize) {
        let floors = self.site.train.floors();
        let wrong = self.references[scan].map_or(0, |f| (f.index() + 1) % floors);
        self.references[scan] = Some(FloorId::from_index(wrong));
    }

    /// An `assign_batch` request line for the given held-out scans.
    pub fn frame(&self, id: u64, scans: &[usize]) -> String {
        let mut text = format!(
            r#"{{"op":"assign_batch","building":"{}","id":{id},"scans":["#,
            self.name()
        );
        for (k, &s) in scans.iter().enumerate() {
            if k > 0 {
                text.push(',');
            }
            text.push_str(&self.held_json[s]);
        }
        text.push_str("]}");
        text
    }

    /// Checks an `assign_batch` response line: no error frame, no failed
    /// row, and every floor equal to its reference.
    pub fn check_response(&self, scans: &[usize], line: &str) -> Result<(), String> {
        let json = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        if json.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("error frame: {line}"));
        }
        if json.get("failures").and_then(Json::as_usize) != Some(0) {
            return Err(format!("rows failed: {line}"));
        }
        let rows = json
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no results: {line}"))?;
        if rows.len() != scans.len() {
            return Err(format!("{} rows for {} scans", rows.len(), scans.len()));
        }
        for (row, &s) in rows.iter().zip(scans) {
            let got = row.get("floor").and_then(Json::as_usize);
            let want = self.references[s].map(|f| f.index());
            if got.is_none() || got != want {
                return Err(format!(
                    "{} held-out scan {s}: served floor {got:?}, reference {want:?}",
                    self.name()
                ));
            }
        }
        Ok(())
    }
}
