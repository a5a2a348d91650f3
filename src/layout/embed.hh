/**
 * @file
 * Rectangular-grid folding: the embedding substrate behind Theorem 2.
 *
 * Theorem 2 cites Aleliunas & Rosenberg [1]: any rectangular grid embeds
 * in a square grid with constant area and edge-stretch factors. The full
 * AR construction (folding with compression) is out of scope for this
 * reproduction; we substitute the classic *interleaved fold*, which
 * preserves area within a constant factor and stretches vertical edges
 * by 2 per fold (so dilation O(sqrt(aspect-ratio)) overall). The
 * Theorem 2 bench therefore demonstrates the theorem's claim directly on
 * bounded-aspect-ratio layouts (where Lemma 1 applies as stated) and
 * reports the measured stretch of this simpler embedding for strongly
 * rectangular inputs. See DESIGN.md, Section 2.
 */

#ifndef VSYNC_LAYOUT_EMBED_HH
#define VSYNC_LAYOUT_EMBED_HH

#include "layout/layout.hh"

namespace vsync::layout
{

/** Metrics describing the quality of a grid embedding. */
struct EmbedStats
{
    /** Area of the embedded layout's bounding box. */
    double area = 0.0;
    /** Area of the natural (unfolded) layout. */
    double originalArea = 0.0;
    /** area / originalArea. */
    double areaFactor = 0.0;
    /** Longest communication edge after embedding. */
    Length dilation = 0.0;
    /** Aspect ratio (>= 1) of the embedded bounding box. */
    double aspectRatio = 0.0;
    /** Number of folds applied. */
    int folds = 0;
};

/**
 * Embed a rows x cols mesh into a near-square region by repeatedly
 * folding the longer dimension in half with row interleaving.
 *
 * Folds stop when the bounding box aspect ratio drops at or below
 * @p targetAspect.
 *
 * @param[out] stats embedding quality metrics (optional).
 */
Layout embedMeshNearSquare(int rows, int cols, double targetAspect = 2.0,
                           EmbedStats *stats = nullptr);

} // namespace vsync::layout

#endif // VSYNC_LAYOUT_EMBED_HH
