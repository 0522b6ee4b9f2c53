package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"gsi/internal/core"
)

// HTML timeline export: a single self-contained page — embedded JSON data,
// inline styles, inline vanilla-JS canvas renderer, no external assets or
// network references — in the spirit of Daisen's interactive component
// timelines. One row per SM plus an engine-jump row; wheel-zoom around the
// cursor, drag to pan, per-kind filter checkboxes, and hover detail showing
// kind, sub-cause, and span extent.

// kindCSSColors maps stall kinds to the page's palette (CSS colors).
var kindCSSColors = [core.NumStallKinds]string{
	core.NoStall:        "#2e7d32",
	core.Idle:           "#9e9e9e",
	core.Control:        "#fbc02d",
	core.Sync:           "#1565c0",
	core.MemData:        "#ef6c00",
	core.MemStructural:  "#c62828",
	core.CompData:       "#6a1b9a",
	core.CompStructural: "#827717",
}

// htmlData is the JSON document embedded in the page.
type htmlData struct {
	Kinds   []string    `json:"kinds"`
	Colors  []string    `json:"colors"`
	End     uint64      `json:"end"`
	SMs     [][][4]any  `json:"sms"`     // per SM: [start, cycles, kindIdx, subCause]
	Jumps   [][2]uint64 `json:"jumps"`   // [from, to]
	Dropped uint64      `json:"dropped"` // total dropped events across buffers
}

// WriteHTML writes the interactive timeline as one self-contained HTML
// document.
func (c *Collector) WriteHTML(w io.Writer) error {
	kinds := core.StallKinds()
	data := htmlData{
		Kinds:  make([]string, len(kinds)),
		Colors: make([]string, len(kinds)),
		End:    c.EndCycle(),
		SMs:    make([][][4]any, len(c.sms)),
	}
	for i, k := range kinds {
		data.Kinds[i] = k.String()
		data.Colors[i] = kindCSSColors[k]
	}
	for sm := range c.sms {
		rows := make([][4]any, 0, len(c.sms[sm].spans))
		for _, s := range c.sms[sm].spans {
			rows = append(rows, [4]any{s.Start, s.Cycles, int(s.Class.Kind), c.SubCause(sm, s)})
		}
		data.SMs[sm] = rows
	}
	data.Jumps = make([][2]uint64, 0, len(c.jumps))
	for _, j := range c.jumps {
		data.Jumps = append(data.Jumps, [2]uint64{j.From, j.To})
	}
	sd, jd, ld := c.Dropped()
	data.Dropped = sd + jd + ld

	doc, err := json.Marshal(data)
	if err != nil {
		return err
	}
	// "</" never appears inside a script element's data: close-tag scanning
	// is the one place embedded JSON can break the page.
	safe := strings.ReplaceAll(string(doc), "</", "<\\/")

	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, htmlPage, safe); err != nil {
		return err
	}
	return bw.Flush()
}

// htmlPage is the page template; the single %s is the embedded JSON.
const htmlPage = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>gsi stall timeline</title>
<style>
body { margin: 0; font: 13px monospace; background: #111; color: #ddd; }
#bar { padding: 6px 10px; background: #1c1c1c; border-bottom: 1px solid #333; }
#bar label { margin-right: 10px; cursor: pointer; white-space: nowrap; }
#bar .sw { display: inline-block; width: 10px; height: 10px; margin-right: 3px; }
#hint { color: #888; margin-left: 12px; }
#wrap { position: relative; }
canvas { display: block; width: 100vw; cursor: crosshair; }
#tip { position: absolute; display: none; pointer-events: none; background: #222;
      border: 1px solid #555; padding: 4px 7px; z-index: 2; }
</style>
</head>
<body>
<div id="bar"></div>
<div id="wrap"><canvas id="cv"></canvas><div id="tip"></div></div>
<script id="trace-data" type="application/json">
%s
</script>
<script>
"use strict";
var D = JSON.parse(document.getElementById("trace-data").textContent);
var rows = [];
for (var i = 0; i < D.sms.length; i++) rows.push({label: "SM" + i, spans: D.sms[i]});
rows.push({label: "jumps", jumps: D.jumps});
var show = D.kinds.map(function(){ return true; });
var v0 = 0, v1 = Math.max(D.end, 1);
var ROW = 18, LEFT = 64, TOP = 8;
var cv = document.getElementById("cv"), cx = cv.getContext("2d");
var tip = document.getElementById("tip");

var bar = document.getElementById("bar");
D.kinds.forEach(function(k, i) {
  var lab = document.createElement("label");
  var cb = document.createElement("input");
  cb.type = "checkbox"; cb.checked = true;
  cb.onchange = function(){ show[i] = cb.checked; draw(); };
  var sw = document.createElement("span");
  sw.className = "sw"; sw.style.background = D.colors[i];
  lab.appendChild(cb); lab.appendChild(sw);
  lab.appendChild(document.createTextNode(k));
  bar.appendChild(lab);
});
var hint = document.createElement("span");
hint.id = "hint";
hint.textContent = "wheel: zoom   drag: pan" + (D.dropped ? "   (" + D.dropped + " events dropped at buffer caps)" : "");
bar.appendChild(hint);

function resize() {
  var h = TOP * 2 + rows.length * ROW;
  cv.width = window.innerWidth * devicePixelRatio;
  cv.height = h * devicePixelRatio;
  cv.style.height = h + "px";
  draw();
}
function xOf(t) { return LEFT + (t - v0) / (v1 - v0) * (window.innerWidth - LEFT); }
function tOf(x) { return v0 + (x - LEFT) / (window.innerWidth - LEFT) * (v1 - v0); }

function draw() {
  cx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  cx.clearRect(0, 0, window.innerWidth, cv.height);
  cx.fillStyle = "#111";
  cx.fillRect(0, 0, window.innerWidth, cv.height);
  rows.forEach(function(r, ri) {
    var y = TOP + ri * ROW;
    cx.fillStyle = "#888";
    cx.fillText(r.label, 4, y + 12);
    if (r.spans) {
      for (var i = 0; i < r.spans.length; i++) {
        var s = r.spans[i];
        if (!show[s[2]] || s[0] + s[1] < v0 || s[0] > v1) continue;
        var x0 = Math.max(xOf(s[0]), LEFT), x1 = xOf(s[0] + s[1]);
        cx.fillStyle = D.colors[s[2]];
        cx.fillRect(x0, y + 2, Math.max(x1 - x0, 0.5), ROW - 5);
      }
    } else {
      var evs = r.jumps;
      cx.fillStyle = "#00acc1";
      for (var j = 0; j < evs.length; j++) {
        var e = evs[j];
        if (e[1] < v0 || e[0] > v1) continue;
        var a = Math.max(xOf(e[0]), LEFT), b = xOf(e[1]);
        cx.fillRect(a, y + 6, Math.max(b - a, 1), ROW - 12);
      }
    }
  });
  cx.fillStyle = "#666";
  cx.fillText(Math.round(v0) + " .. " + Math.round(v1) + " cycles", LEFT, cv.height / devicePixelRatio - 2);
}

cv.addEventListener("wheel", function(ev) {
  ev.preventDefault();
  var t = tOf(ev.clientX), f = ev.deltaY > 0 ? 1.25 : 0.8;
  var w = (v1 - v0) * f;
  if (w < 4) w = 4;
  if (w > D.end * 2 + 2) w = D.end * 2 + 2;
  v0 = t - (t - v0) * (w / (v1 - v0));
  v1 = v0 + w;
  draw();
}, {passive: false});

var dragX = null;
cv.addEventListener("mousedown", function(ev){ dragX = ev.clientX; });
window.addEventListener("mouseup", function(){ dragX = null; });
cv.addEventListener("mousemove", function(ev) {
  if (dragX !== null) {
    var dt = (dragX - ev.clientX) / (window.innerWidth - LEFT) * (v1 - v0);
    v0 += dt; v1 += dt; dragX = ev.clientX;
    draw(); return;
  }
  var ri = Math.floor((ev.offsetY - TOP) / ROW), t = tOf(ev.clientX);
  var txt = "";
  if (ri >= 0 && ri < rows.length) {
    var r = rows[ri];
    if (r.spans) {
      for (var i = 0; i < r.spans.length; i++) {
        var s = r.spans[i];
        if (t >= s[0] && t < s[0] + s[1] && show[s[2]]) {
          txt = r.label + ": " + D.kinds[s[2]] + (s[3] ? " (" + s[3] + ")" : "") +
                " @" + s[0] + " for " + s[1] + " cycles";
          break;
        }
      }
    } else {
      var evs = r.jumps;
      for (var j = 0; j < evs.length; j++) {
        if (t >= evs[j][0] && t <= evs[j][1]) {
          txt = r.label + ": " + evs[j][0] + " to " + evs[j][1] +
                " (" + (evs[j][1] - evs[j][0]) + " cycles)";
          break;
        }
      }
    }
  }
  if (txt) {
    tip.style.display = "block";
    tip.style.left = (ev.clientX + 14) + "px";
    tip.style.top = (ev.offsetY + 14) + "px";
    tip.textContent = txt;
  } else {
    tip.style.display = "none";
  }
});
cv.addEventListener("mouseleave", function(){ tip.style.display = "none"; });

window.addEventListener("resize", resize);
resize();
</script>
</body>
</html>
`
