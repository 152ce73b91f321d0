(** Exporters for the metrics registry and the sampled time series.

    Three formats, matching the three consumers of the observability
    layer: Prometheus text exposition (scrapers, Grafana), CSV time
    series (plotting the trajectory of a run), and a JSON summary (the
    benchmark harness and the regression gate). *)

(** Prometheus text exposition format.  Counters export as [name]
    [value]; histograms as cumulative [_bucket{le="..."}] series plus
    [_sum]/[_count], the shape [histogram_quantile()] expects. *)
val prometheus : Registry.t -> string

(** The formats {!save} writes:
    - [Prometheus]: {!prometheus};
    - [Csv]: a time series of the sampler's snapshots, one row per tick
      and one column per metric (union across ticks; metrics created
      mid-run leave early cells empty).  Labelled series names (which
      embed commas and quotes) are RFC-4180-quoted in the header so they
      survive as single columns;
    - [Json_summary]: every counter and gauge, plus
      count/min/max/mean/p50/p95/p99/p999 per histogram. *)
type format = Prometheus | Csv | Json_summary

(** Pick a format from a path extension: [.prom] / [.csv] / anything
    else JSON. *)
val format_of_path : string -> format

(** Render [format] and write it to [path].  [Csv] requires the sampler. *)
val save : path:string -> ?sampler:Sampler.t -> format -> Registry.t -> unit

module Private : sig
  (** RFC-4180 cell quoting as applied to the CSV header: quotes the cell
      when it contains a comma, quote, or newline, doubling embedded
      quotes.  [csv_cell "n{a=\"x\"}"] is ["\"n{a=\"\"x\"\"}\""]. *)
  val csv_cell : string -> string

  (** Split one CSV line back into cells, honouring {!csv_cell} quoting:
      [csv_split (String.concat "," (List.map csv_cell cells)) = cells]. *)
  val csv_split : string -> string list
end
