module Image = Gaea_raster.Image

type stats = {
  mutable computations : int;
  mutable pixels_computed : int;
  mutable overwrites : int;
  mutable files_saved : int;
  mutable failed_recalls : int;
}

type t = {
  files : (string, Image.t) Hashtbl.t;
  memory : (string * string, unit) Hashtbl.t; (* (scientist, file) *)
  stats : stats;
}

let create () =
  { files = Hashtbl.create 64;
    memory = Hashtbl.create 64;
    stats =
      { computations = 0; pixels_computed = 0; overwrites = 0;
        files_saved = 0; failed_recalls = 0 } }

let stats t = t.stats

let save t ~name img =
  if Hashtbl.mem t.files name then t.stats.overwrites <- t.stats.overwrites + 1;
  Hashtbl.replace t.files name img;
  t.stats.files_saved <- t.stats.files_saved + 1

let load t name = Hashtbl.find_opt t.files name

let file_count t = Hashtbl.length t.files

let remembers t ~scientist name = Hashtbl.mem t.memory (scientist, name)

let run_analysis t ~scientist ~output ~inputs f =
  if remembers t ~scientist output then
    match load t output with
    | Some img -> Ok img
    | None ->
      (* the file was overwritten or removed by someone else *)
      t.stats.failed_recalls <- t.stats.failed_recalls + 1;
      Error (Gaea_error.Io_error (output ^ ": file vanished"))
  else begin
    let rec read acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest ->
        (match load t name with
         | Some img -> read (img :: acc) rest
         | None ->
           t.stats.failed_recalls <- t.stats.failed_recalls + 1;
           Error (Gaea_error.Io_error (name ^ ": no such file")))
    in
    match read [] inputs with
    | Error _ as e -> e
    | Ok imgs ->
      let result = f imgs in
      t.stats.computations <- t.stats.computations + 1;
      t.stats.pixels_computed <-
        t.stats.pixels_computed
        + List.fold_left (fun acc i -> acc + Image.size i) 0 imgs;
      save t ~name:output result;
      Hashtbl.replace t.memory (scientist, output) ();
      Ok result
  end
